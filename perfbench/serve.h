#ifndef PERFBENCH_SERVE_H_
#define PERFBENCH_SERVE_H_

#include <sys/types.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "server/protocol.h"
#include "util/status.h"

// The benchmark's side of `floq serve`: the daemon as a child process and
// blocking client connections over its AF_UNIX socket.

namespace perfbench {

class Connection {
 public:
  /// Connects to the daemon socket at `socket_path`, retrying until
  /// `timeout_ms` has passed.
  static floq::Result<Connection> Open(const std::string& socket_path,
                                       double timeout_ms);
  Connection() = default;
  ~Connection();
  Connection(Connection&& other) noexcept;
  Connection& operator=(Connection&& other) noexcept;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// One request/reply round trip of already-serialized JSON.
  floq::Result<std::string> CallRaw(const std::string& request);
  floq::Result<floq::server::Json> Call(const floq::server::Json& request);
  void Close();

 private:
  int fd_ = -1;
  floq::server::FrameDecoder decoder_;
};

/// `floq serve <dir>` with default options, run as a child process whose
/// working directory is the benchmark's. The destructor stops a daemon
/// that is still running (SIGKILL) and reaps it.
class DaemonProcess {
 public:
  DaemonProcess(std::string floq_binary, std::string dir);
  ~DaemonProcess();
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  /// Forks and execs the daemon; returns once its socket accepts a
  /// connection, which is returned.
  floq::Result<Connection> Start();
  /// Sends `shutdown` (graceful drain with a final checkpoint) and waits
  /// for a zero exit.
  floq::Status Shutdown();
  /// Peak resident set of the running daemon in MB.
  double PeakRssMb() const;
  const std::string& socket_path() const { return socket_path_; }

 private:
  floq::Status Reap(double timeout_ms);

  std::string binary_;
  std::string dir_;
  std::string socket_path_;
  pid_t pid_ = -1;
};

/// A JSON request {"cmd": cmd, key: value, ...} from string pairs.
floq::server::Json Request(
    const char* cmd,
    std::initializer_list<std::pair<const char*, std::string>> fields = {});

}  // namespace perfbench

#endif  // PERFBENCH_SERVE_H_
