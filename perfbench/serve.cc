#include "serve.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <thread>

#include "measure.h"
#include "util/deadline.h"

namespace perfbench {

using floq::Result;
using floq::Status;
using floq::server::Json;

Result<Connection> Connection::Open(const std::string& socket_path,
                                    double timeout_ms) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    return floq::InvalidArgumentError("socket path too long: " + socket_path);
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  const double deadline = NowMs() + timeout_ms;
  for (;;) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return floq::InternalError(std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
      Connection connection;
      connection.fd_ = fd;
      return connection;
    }
    const int error = errno;
    ::close(fd);
    if (NowMs() > deadline) {
      return floq::DeadlineExceededError("connect " + socket_path + ": " +
                                         std::strerror(error));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Connection::~Connection() { Close(); }

Connection::Connection(Connection&& other) noexcept
    : fd_(other.fd_), decoder_(std::move(other.decoder_)) {
  other.fd_ = -1;
}

Connection& Connection::operator=(Connection&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    decoder_ = std::move(other.decoder_);
    other.fd_ = -1;
  }
  return *this;
}

void Connection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Result<std::string> Connection::CallRaw(const std::string& request) {
  Status written = floq::server::WriteFrame(
      fd_, request, floq::Deadline::AfterMillis(30'000));
  if (!written.ok()) return written;
  return floq::server::ReadFrame(fd_, decoder_,
                                 floq::Deadline::AfterMillis(120'000));
}

Result<Json> Connection::Call(const Json& request) {
  Result<std::string> reply = CallRaw(request.Serialize());
  if (!reply.ok()) return reply.status();
  return floq::server::ParseJson(*reply);
}

DaemonProcess::DaemonProcess(std::string floq_binary, std::string dir)
    : binary_(std::move(floq_binary)),
      dir_(std::move(dir)),
      socket_path_(dir_ + "/floq.sock") {}

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    (void)Reap(10'000);
  }
}

Result<Connection> DaemonProcess::Start() {
  if (pid_ > 0) return floq::FailedPreconditionError("daemon already running");
  const std::string log = dir_ + ".log";
  pid_t pid = ::fork();
  if (pid < 0) return floq::InternalError(std::strerror(errno));
  if (pid == 0) {
    // Child: dies with the benchmark, and its structured log goes to a
    // file beside its registry directory, never to the benchmark's stdout.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execl(binary_.c_str(), "floq", "serve", dir_.c_str(),
            static_cast<char*>(nullptr));
    ::_exit(127);
  }
  pid_ = pid;
  const double deadline = NowMs() + 60'000;
  for (;;) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return floq::InternalError("floq serve exited during start-up; see " +
                                 log);
    }
    Result<Connection> connection = Connection::Open(socket_path_, 50);
    if (connection.ok()) return connection;
    if (NowMs() > deadline) {
      return floq::DeadlineExceededError("floq serve did not start");
    }
  }
}

Status DaemonProcess::Shutdown() {
  if (pid_ <= 0) return floq::FailedPreconditionError("daemon not running");
  Result<Connection> connection = Connection::Open(socket_path_, 10'000);
  if (!connection.ok()) return connection.status();
  Result<Json> reply = connection->Call(Request("shutdown"));
  if (!reply.ok()) return reply.status();
  return Reap(60'000);
}

Status DaemonProcess::Reap(double timeout_ms) {
  const double deadline = NowMs() + timeout_ms;
  for (;;) {
    int status = 0;
    const pid_t done = ::waitpid(pid_, &status, WNOHANG);
    if (done == pid_) {
      pid_ = -1;
      if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        return floq::InternalError("floq serve exited abnormally");
      }
      return Status::Ok();
    }
    if (done < 0) {
      pid_ = -1;
      return floq::InternalError(std::string("waitpid: ") +
                                 std::strerror(errno));
    }
    if (NowMs() > deadline) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
      pid_ = -1;
      return floq::DeadlineExceededError("floq serve did not drain");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

double DaemonProcess::PeakRssMb() const {
  return pid_ > 0 ? perfbench::PeakRssMb(pid_) : 0.0;
}

Json Request(
    const char* cmd,
    std::initializer_list<std::pair<const char*, std::string>> fields) {
  Json request = Json::Object();
  request.Set("cmd", Json::String(cmd));
  for (const auto& [key, value] : fields) {
    request.Set(key, Json::String(value));
  }
  return request;
}

}  // namespace perfbench
