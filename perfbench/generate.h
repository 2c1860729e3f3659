#ifndef PERFBENCH_GENERATE_H_
#define PERFBENCH_GENERATE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/conjunctive_query.h"
#include "term/world.h"

// Seeded input generation for the three benchmark workloads. Every
// generator is a pure function of its seed: the same seed yields
// byte-identical inputs (SerializeInputs), so two runs of one seed send the
// program the same queries in the same order.

namespace perfbench {

/// classify_batch: ~1000 boolean meta-queries over a narrow constant pool
/// (4 constants), 4-8 atoms each with mandatory/funct atoms, plus a 2%
/// structured spine of mandatory cycles and data-chain probes.
inline constexpr int kClassifyQueries = 1000;
std::vector<floq::ConjunctiveQuery> MakeClassifyQueries(floq::World& world,
                                                        uint64_t seed);

/// A query as the daemon sees it: a registry name plus surface text
/// produced by flogic::QueryToSurface.
struct NamedQuery {
  std::string name;
  std::string text;
};

/// serve_registry_growth: registrations in order, half class-membership
/// shapes (pairwise related, so the lattice holds contained edges) and half
/// random meta-queries; `churn` indexes the tenth that is unregistered and
/// then registered again.
inline constexpr int kGrowthQueries = 1000;
struct GrowthInputs {
  std::vector<NamedQuery> registrations;
  std::vector<size_t> churn;
};
GrowthInputs MakeGrowthInputs(uint64_t seed);

/// One reader request of serve_mixed. Cached requests name two warm
/// registry entries; ad-hoc requests carry two texts from the ad-hoc pool
/// inline (lhs_query/rhs_query).
struct ReaderOp {
  bool cached = true;
  uint32_t lhs = 0;
  uint32_t rhs = 0;
};

/// serve_mixed: a warm registry loaded during set-up, the writer's
/// registrations in due order, the ad-hoc text pool, and one request
/// stream per reader connection (readers cycle through their stream).
inline constexpr int kMixedWarm = 500;
inline constexpr int kMixedReaders = 2;
inline constexpr int kReaderStream = 1 << 16;
struct MixedInputs {
  std::vector<NamedQuery> warm;
  std::vector<NamedQuery> writes;
  std::vector<std::string> adhoc;
  std::vector<std::vector<ReaderOp>> readers;
};
MixedInputs MakeMixedInputs(uint64_t seed);

/// Canonical byte rendering of each workload's inputs, used to check that
/// generation is deterministic.
std::string SerializeInputs(const std::vector<floq::ConjunctiveQuery>& queries,
                            const floq::World& world);
std::string SerializeInputs(const GrowthInputs& inputs);
std::string SerializeInputs(const MixedInputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_GENERATE_H_
