#include "generate.h"

#include "flogic/printer.h"
#include "gen/generators.h"
#include "util/rng.h"
#include "util/strings.h"

namespace perfbench {
namespace {

using floq::Atom;
using floq::ConjunctiveQuery;
using floq::Rng;
using floq::Term;
using floq::World;

// Independent sub-seeds per input stream, so changing one stream's size
// never shifts another stream's draws.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + stream;
  return floq::SplitMix64(state);
}

// The serve registries alternate two families. Even positions are
// bench_serve's class-membership shapes: three variants per class, each
// contained in the previous one, so the lattice holds real edges. Odd
// positions are random arity-1 meta-queries; with 4-7 atoms they are
// rarely contained in one another, so the lattice (and with it the cost of
// every publish) is nearly the same for every seed. They carry no
// mandatory/funct atoms: without mandatory atoms the chase invents no nulls
// and stays small, whereas a mandatory atom over variables lets a pair's
// Theorem 12 chase (up to 7 * 14 levels) outgrow the daemon's atom budget,
// which fails the request.
// Random queries name their variables "R<i>_V<k>" so that the surface
// printer emits variable tokens (upper-case initial).
std::string ServeQueryText(uint64_t seed, int position) {
  World world;
  if (position % 2 == 0) {
    const int shape = position / 2;
    Term cls = world.MakeConstant("cls" + std::to_string(shape / 3));
    Term x = world.MakeVariable("X");
    Term y = world.MakeVariable("Y");
    std::vector<Atom> body = {Atom::Member(x, cls)};
    if (shape % 3 >= 1) {
      body.push_back(Atom::Data(x, world.MakeConstant("advisor"), y));
    }
    if (shape % 3 == 2) body.push_back(Atom::Member(y, cls));
    return floq::flogic::QueryToSurface(ConjunctiveQuery("q", {x}, body),
                                        world);
  }
  Rng rng(SubSeed(seed, uint64_t(position)));
  floq::gen::RandomQuerySpec spec;
  spec.variable_pool = 3;
  spec.constant_pool = 4;
  spec.constant_probability = 0.3;
  spec.arity = 1;
  spec.with_constraints = false;
  // A body without variables leaves the head empty; every serve query has
  // arity 1 so that ClassifyQueries can check the registry's lattice.
  ConjunctiveQuery random;
  while (random.arity() != 1) {
    spec.seed = rng.Next();
    spec.atoms = int(rng.Between(4, 7));
    random = floq::gen::MakeRandomQuery(world, spec,
                                        floq::StrCat("R", position));
  }
  return floq::flogic::QueryToSurface(
      ConjunctiveQuery("q", random.head(), random.body()), world);
}

std::vector<NamedQuery> ServeQueries(uint64_t seed, const std::string& prefix,
                                     int count) {
  std::vector<NamedQuery> out;
  out.reserve(size_t(count));
  for (int i = 0; i < count; ++i) {
    out.push_back({floq::StrCat(prefix, i), ServeQueryText(seed, i)});
  }
  return out;
}

}  // namespace

std::vector<ConjunctiveQuery> MakeClassifyQueries(World& world,
                                                  uint64_t seed) {
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(kClassifyQueries);
  // The spine: infinite-chase mandatory cycles and finite data-chain
  // probes. Probes are variable-only right-hand sides that no constant
  // test can prune, so every one of their pairs reaches chase + hom.
  const int spine = kClassifyQueries / 50;
  for (int i = 0; i < spine; ++i) {
    if (i % 2 == 1) {
      queries.push_back(floq::gen::MakeMandatoryCycleQuery(
          world, 1 + i % 3, "cycle" + std::to_string(i)));
    } else {
      queries.push_back(floq::gen::MakeDataChainProbe(
          world, 1 + i % 6, "probe" + std::to_string(i)));
    }
  }
  Rng rng(SubSeed(seed, 0));
  floq::gen::RandomQuerySpec spec;
  spec.arity = 0;
  spec.variable_pool = 4;
  spec.constant_pool = 4;
  spec.constant_probability = 0.3;
  spec.with_constraints = true;
  for (int i = spine; i < kClassifyQueries; ++i) {
    spec.seed = rng.Next();
    spec.atoms = int(rng.Between(4, 8));
    queries.push_back(
        floq::gen::MakeRandomQuery(world, spec, floq::StrCat("q", i)));
  }
  return queries;
}

GrowthInputs MakeGrowthInputs(uint64_t seed) {
  GrowthInputs inputs;
  inputs.registrations = ServeQueries(SubSeed(seed, 1), "g", kGrowthQueries);
  // A seeded tenth of the registry, in a seeded order (partial
  // Fisher-Yates over the registration indexes).
  std::vector<size_t> order(inputs.registrations.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(SubSeed(seed, 2));
  const size_t churn = order.size() / 10;
  for (size_t i = 0; i < churn; ++i) {
    std::swap(order[i], order[i + rng.Below(order.size() - i)]);
  }
  inputs.churn.assign(order.begin(), order.begin() + long(churn));
  return inputs;
}

MixedInputs MakeMixedInputs(uint64_t seed) {
  MixedInputs inputs;
  inputs.warm = ServeQueries(SubSeed(seed, 3), "w", kMixedWarm);
  inputs.writes = ServeQueries(SubSeed(seed, 4), "n", 2 * kMixedWarm);
  for (const NamedQuery& q : ServeQueries(SubSeed(seed, 5), "a", 256)) {
    inputs.adhoc.push_back(q.text);
  }
  // Half the cached pairs compare two shapes of one class (a real lattice
  // edge in one direction), the other half two uniformly drawn entries.
  const uint32_t classes = kMixedWarm / 6;
  for (int r = 0; r < kMixedReaders; ++r) {
    Rng rng(SubSeed(seed, 10 + uint64_t(r)));
    std::vector<ReaderOp> ops(kReaderStream);
    for (ReaderOp& op : ops) {
      if (rng.Below(10) == 0) {
        op.cached = false;
        op.lhs = uint32_t(rng.Below(inputs.adhoc.size()));
        op.rhs = uint32_t(rng.Below(inputs.adhoc.size()));
      } else if (rng.Below(2) == 0) {
        const uint32_t cls = uint32_t(rng.Below(classes));
        op.lhs = 2 * (3 * cls + uint32_t(rng.Below(3)));
        op.rhs = 2 * (3 * cls + uint32_t(rng.Below(3)));
      } else {
        op.lhs = uint32_t(rng.Below(inputs.warm.size()));
        op.rhs = uint32_t(rng.Below(inputs.warm.size()));
      }
    }
    inputs.readers.push_back(std::move(ops));
  }
  return inputs;
}

std::string SerializeInputs(const std::vector<ConjunctiveQuery>& queries,
                            const World& world) {
  std::string out;
  for (const ConjunctiveQuery& q : queries) {
    out += floq::flogic::QueryToSurface(q, world);
    out += '\n';
  }
  return out;
}

std::string SerializeInputs(const GrowthInputs& inputs) {
  std::string out;
  for (const NamedQuery& q : inputs.registrations) {
    out += q.name + '\t' + q.text + '\n';
  }
  for (size_t i : inputs.churn) out += std::to_string(i) + '\n';
  return out;
}

std::string SerializeInputs(const MixedInputs& inputs) {
  std::string out;
  for (const auto* list : {&inputs.warm, &inputs.writes}) {
    for (const NamedQuery& q : *list) out += q.name + '\t' + q.text + '\n';
  }
  for (const std::string& text : inputs.adhoc) out += text + '\n';
  for (const std::vector<ReaderOp>& stream : inputs.readers) {
    for (const ReaderOp& op : stream) {
      out += op.cached ? 'c' : 'a';
      out += std::to_string(op.lhs) + ',' + std::to_string(op.rhs) + '\n';
    }
  }
  return out;
}

}  // namespace perfbench
