// Workload runner of the repository benchmark (perfbench/run.py runs it).
//
// Runs one named workload through AvmemSimulation's public API and prints
// one JSON document on stdout: the run's end-to-end metrics, and with
// --trace 1 the per-layer profile as well. Nothing inside src/ is
// instrumented: every span is recorded here, around a public call, and
// carries deltas of the counters and timers the layers already expose.
//
// A run is one or two passes over the same (workload, seed):
//   untraced pass  setup (construct + warm-up), then the measured phase,
//                  repeated from the setup checkpoint as often as whole
//                  repetitions fit in --seconds (at least once; each
//                  repetition is fixed work, and the median one counts);
//   traced pass    (--trace 1 only) the same setup and phase, driven as
//                  warmup(0) plus 1-sim-minute run() slices so every slice
//                  and every public call becomes a span; kernel probes run
//                  on its system after everything measured.
// Every pass must reproduce the same sim digest (the determinism gate);
// any disagreement — between passes, between phase repetitions, or
// between a checkpoint-restored system and its original — exits 3.
//
// Usage: avmem_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                        [--smoke] [--trace-out FILE]
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "hash/pair_hash.hpp"
#include "snapshot/checkpoint.hpp"

namespace {

using namespace avmem;
using Clock = std::chrono::steady_clock;
using core::AvmemSimulation;
using sim::SimDuration;

constexpr int kExitUsage = 2;
constexpr int kExitMismatch = 3;

/// Plan threads are pinned, not auto-detected, so a workload is the same
/// work on every machine. Two (the caller plus one worker) leave half of a
/// 4-core machine free: at one thread per core, every fork/join waits on
/// whichever core another process or the host takes. On a 4-vCPU Xeon VM,
/// two busy loops beside avmon-10k stretched its phase wall by 50% at four
/// threads and not measurably at two.
constexpr std::size_t kPlanThreads = 2;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct MismatchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Order-sensitive 64-bit digest (splitmix64 finalizer per word).
class Digest {
 public:
  void add(std::uint64_t v) noexcept {
    std::uint64_t z = (h_ ^ v) + 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h_ = z ^ (z >> 31);
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  void add(SimDuration d) noexcept {
    add(static_cast<std::uint64_t>(d.toMicros()));
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0x243F6A8885A308D3ull;
};

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --- workloads ---------------------------------------------------------------

enum class Step {
  kSustain,        ///< `sustain` more simulated time of pure maintenance
  kOpenLoop,       ///< staggered anycast batches cycling band x target
  kProbeAnycasts,  ///< one retried-greedy batch, MID initiators, >= 0.7
  kMulticasts,     ///< range multicasts [0.6, 1.0] from LOW, flood/gossip
  kCheckpoint,     ///< quiesce, then in-memory save + restore into a fresh
                   ///< system
  kAccuracy,       ///< availability-service answers vs trace truth
};

struct Workload {
  std::string name;
  std::uint32_t hosts = 0;
  bool avmon = false;
  SimDuration warmup;
  SimDuration sustain;
  std::size_t probeAnycasts = 0;
  std::size_t openLoopBatches = 0;
  std::size_t batchSize = 0;
  std::size_t multicasts = 0;
  std::size_t accuracySample = 0;
  std::vector<Step> steps;
};

/// The two workloads. --smoke shrinks each to ~2000 nodes and minutes of
/// simulated time (the benchmark's self-test), keeping its step sequence.
std::optional<Workload> makeWorkload(std::string_view name, bool smoke) {
  Workload w;
  w.name = std::string(name);
  w.warmup = SimDuration::hours(2);
  w.sustain = SimDuration::hours(1);
  // Enough delivered samples that the latency median is the scenario's,
  // not the sample's.
  w.probeAnycasts = 600;
  w.multicasts = 2;
  w.accuracySample = 2000;
  if (name == "manage-20k") {
    w.hosts = 20'000;
    w.openLoopBatches = 102;  // 17 rounds of the 6 band x target mixes
    w.batchSize = 50;
    w.multicasts = 10;
    w.steps = {Step::kOpenLoop, Step::kMulticasts, Step::kAccuracy,
               Step::kCheckpoint};
  } else if (name == "avmon-10k") {
    w.hosts = 10'000;
    w.avmon = true;
    w.steps = {Step::kSustain, Step::kCheckpoint, Step::kAccuracy,
               Step::kProbeAnycasts, Step::kMulticasts};
  } else {
    return std::nullopt;
  }
  if (smoke) {
    w.hosts = 2000;
    w.warmup = SimDuration::hours(1);
    w.sustain = SimDuration::minutes(10);
    w.probeAnycasts = 20;
    w.openLoopBatches = std::min<std::size_t>(w.openLoopBatches, 6);
    w.batchSize = std::min<std::size_t>(w.batchSize, 20);
    w.multicasts = 2;
    w.accuracySample = 500;
  }
  return w;
}

/// The workload's world: makeScaleScenario, then every knob the
/// environment could have reached pinned back to the benchmark's value.
core::SimulationConfig makeConfig(const Workload& w, std::uint64_t seed) {
  core::Scenario s = core::makeScaleScenario(w.hosts, seed);
  core::SimulationConfig c = s.config;
  if (w.avmon) {
    // As the scale-avmon-* registry entries configure it: kFast64 monitor
    // relation on a stream independent of the protocol hash (... + 1).
    c.backend = core::AvailabilityBackend::kAvmon;
    c.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
    c.avmon.hashSeed = c.seed * 0x9E3779B97F4A7C15ull + 2;
  }
  c.maintenanceThreads = kPlanThreads;
  c.pipelinedDispatch = true;
  c.checkpointIn.clear();
  c.checkpointOut.clear();
  c.faultPlan = {};
  c.faultPlanPath.clear();
  return c;
}

// --- counters ----------------------------------------------------------------

/// Every counter and timer the layers expose, read at a span boundary.
struct Counters {
  double cpuS = 0.0;
  double corePlanS = 0.0;
  double coreCommitS = 0.0;
  double shufflePlanS = 0.0;
  double shuffleCommitS = 0.0;
  std::uint64_t plannedMembers = 0;  ///< membership wheels only
  std::uint64_t pipelinedFirings = 0;
  std::uint64_t barrierFirings = 0;
  std::uint64_t discardedSpeculations = 0;
  std::uint64_t events = 0;
  std::uint64_t feedCandidates = 0;
  std::uint64_t completedShuffles = 0;
  net::NetworkStats net{};
  std::uint64_t advancedEpochs = 0;
  std::uint64_t pingsSent = 0;
  std::uint64_t pingBytes = 0;
  std::size_t discoverySamples = 0;
  std::size_t refreshSamples = 0;

  [[nodiscard]] double maintenanceS() const noexcept {
    return corePlanS + coreCommitS + shufflePlanS + shuffleCommitS;
  }
};

Counters readCounters(AvmemSimulation& s) {
  Counters c;
  c.cpuS = processCpuSeconds();
  const core::MembershipEngine& engine = s.membershipEngine();
  const avmon::ShuffleService& shuffle = s.shuffleService();
  c.corePlanS = engine.planWallSeconds();
  c.coreCommitS = engine.commitWallSeconds();
  c.shufflePlanS = shuffle.planWallSeconds();
  c.shuffleCommitS = shuffle.commitWallSeconds();
  const sim::ShardedScheduler* wheels[] = {&engine.discoveryScheduler(),
                                           &engine.refreshScheduler(),
                                           &shuffle.scheduler()};
  for (const sim::ShardedScheduler* w : wheels) {
    c.pipelinedFirings += w->pipelinedFirings();
    c.barrierFirings += w->barrierFirings();
    c.discardedSpeculations += w->discardedSpeculations();
  }
  c.plannedMembers = engine.discoveryScheduler().plannedMembers() +
                     engine.refreshScheduler().plannedMembers();
  c.discoverySamples = engine.discoveryScheduler().planWallSamplesNs().size();
  c.refreshSamples = engine.refreshScheduler().planWallSamplesNs().size();
  c.events = s.simulator().executedEvents();
  c.feedCandidates = engine.stats().feedCandidates;
  c.completedShuffles = shuffle.completedShuffles();
  c.net = s.network().stats();
  if (const avmon::AvmonSystem* av = s.avmonSystem()) {
    c.advancedEpochs = av->advancedEpochs();
    c.pingsSent = av->pingStats().sent;
    c.pingBytes = av->pingStats().bytes;
  }
  return c;
}

/// The sim-invariant part of a counter delta, folded into a digest.
void digestDelta(Digest& d, const Counters& a, const Counters& b) {
  d.add(b.plannedMembers - a.plannedMembers);
  d.add(b.events - a.events);
  d.add(b.feedCandidates - a.feedCandidates);
  d.add(b.completedShuffles - a.completedShuffles);
  d.add(b.net.sent - a.net.sent);
  d.add(b.net.delivered - a.net.delivered);
  d.add(b.net.rejected - a.net.rejected);
  d.add(b.net.droppedOffline - a.net.droppedOffline);
  d.add(b.net.acksSent - a.net.acksSent);
  d.add(b.net.ackTimeouts - a.net.ackTimeouts);
  d.add(b.net.bytesSent - a.net.bytesSent);
  d.add(b.advancedEpochs - a.advancedEpochs);
  d.add(b.pingsSent - a.pingsSent);
  d.add(b.pingBytes - a.pingBytes);
}

/// Digest of the whole simulated world: clock, views, every sliver, wire
/// and engine counters. Equal digests = the same warm state.
std::uint64_t stateDigest(AvmemSimulation& s) {
  Digest d;
  d.add(static_cast<std::uint64_t>(s.simulator().now().toMicros()));
  d.add(s.simulator().executedEvents());
  d.add(s.shuffleService().viewDigest());
  d.add(s.shuffleService().completedShuffles());
  for (std::size_t i = 0; i < s.nodeCount(); ++i) {
    const core::AvmemNode& n = s.node(static_cast<net::NodeIndex>(i));
    for (const core::SliverList* list :
         {&n.horizontalSliver(), &n.verticalSliver()}) {
      d.add(static_cast<std::uint64_t>(list->size()));
      for (std::size_t k = 0; k < list->size(); ++k) {
        d.add(static_cast<std::uint64_t>(list->peerAt(k)));
        d.add(list->cachedAvAt(k));
      }
    }
  }
  const net::NetworkStats& ns = s.network().stats();
  for (const std::uint64_t v :
       {ns.sent, ns.delivered, ns.rejected, ns.droppedOffline, ns.acksSent,
        ns.ackTimeouts, ns.bytesSent, ns.duplicated, ns.injectedDrops}) {
    d.add(v);
  }
  const core::MembershipEngineStats& es = s.membershipEngine().stats();
  d.add(es.discoveryRounds);
  d.add(es.refreshRounds);
  d.add(es.skippedOffline);
  d.add(es.feedCandidates);
  if (const avmon::AvmonSystem* av = s.avmonSystem()) {
    d.add(av->advancedEpochs());
    d.add(av->pingStats().sent);
    d.add(av->pingStats().delivered);
    d.add(av->pingStats().bytes);
  }
  return d.value();
}

// --- tracing -----------------------------------------------------------------

/// Spans recorded around the runner's public calls, kept in memory and
/// written as Chrome trace-event JSON when the run ends.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double startS = 0.0;
    double endS = 0.0;
    bool hasCounters = false;
    Counters before;
    Counters after;
  };

  explicit Tracer(Clock::time_point epoch) : epoch_(epoch) {}

  void open(std::string name, AvmemSimulation* s) {
    Span span;
    span.name = std::move(name);
    span.parent = stack_.empty() ? -1 : stack_.back();
    span.startS = secondsSince(epoch_);
    if (s != nullptr) {
      span.hasCounters = true;
      span.before = readCounters(*s);
    }
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  void close(AvmemSimulation* s) {
    Span& span = spans_.at(static_cast<std::size_t>(stack_.back()));
    stack_.pop_back();
    if (span.hasCounters && s != nullptr) {
      span.after = readCounters(*s);
    } else {
      span.hasCounters = false;
    }
    span.endS = secondsSince(epoch_);
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  void write(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char head[256];
    std::snprintf(head, sizeof(head),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                  "\"parent\": %d",
                  s.name.c_str(), s.startS * 1e6, (s.endS - s.startS) * 1e6, i,
                  s.parent);
    out << head;
    if (s.hasCounters) {
      const Counters& a = s.before;
      const Counters& b = s.after;
      out << ", \"core_plan_s\": " << b.corePlanS - a.corePlanS
          << ", \"core_commit_s\": " << b.coreCommitS - a.coreCommitS
          << ", \"shuffle_plan_s\": " << b.shufflePlanS - a.shufflePlanS
          << ", \"shuffle_commit_s\": " << b.shuffleCommitS - a.shuffleCommitS
          << ", \"cpu_s\": " << b.cpuS - a.cpuS
          << ", \"events\": " << b.events - a.events
          << ", \"planned_members\": " << b.plannedMembers - a.plannedMembers
          << ", \"net_sent\": " << b.net.sent - a.net.sent
          << ", \"completed_shuffles\": "
          << b.completedShuffles - a.completedShuffles
          << ", \"pings_sent\": " << b.pingsSent - a.pingsSent;
    }
    out << "}}" << (i + 1 < spans_.size() ? "," : "") << "\n";
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("cannot write trace file " + path);
}

/// Scoped span; a no-op when the pass is untraced.
class SpanGuard {
 public:
  SpanGuard(Tracer* t, std::string name, AvmemSimulation* s)
      : tracer_(t), system_(s) {
    if (tracer_ != nullptr) tracer_->open(std::move(name), system_);
  }
  ~SpanGuard() {
    if (tracer_ != nullptr) tracer_->close(system_);
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer* tracer_;
  AvmemSimulation* system_;
};

// --- the measured phase ------------------------------------------------------

/// What the management operations and probes of one phase returned.
struct Outcomes {
  std::vector<core::AnycastResult> anycasts;
  std::vector<core::MulticastResult> multicasts;
  std::vector<double> accuracyErrors;
  std::size_t accuracyQueries = 0;
  /// Operations the runner asked for but the system never ran (a band
  /// with no eligible initiator ends a batch early).
  std::size_t missing = 0;

  void digest(Digest& d) const {
    d.add(static_cast<std::uint64_t>(anycasts.size()));
    for (const core::AnycastResult& r : anycasts) {
      d.add(static_cast<std::uint64_t>(r.outcome));
      d.add(static_cast<std::uint64_t>(static_cast<std::int64_t>(r.hops)));
      d.add(r.latency);
      d.add(static_cast<std::uint64_t>(r.deliveredTo));
    }
    d.add(static_cast<std::uint64_t>(multicasts.size()));
    for (const core::MulticastResult& m : multicasts) {
      d.add(static_cast<std::uint64_t>(m.reachedRange));
      d.add(static_cast<std::uint64_t>(m.eligible));
      d.add(static_cast<std::uint64_t>(m.delivered));
      d.add(static_cast<std::uint64_t>(m.spam));
      d.add(m.lastDeliveryLatency);
      for (const SimDuration l : m.deliveryLatencies) d.add(l);
    }
    d.add(static_cast<std::uint64_t>(accuracyQueries));
    for (const double e : accuracyErrors) d.add(e);
    d.add(static_cast<std::uint64_t>(missing));
  }
};

/// One system's run of a workload's steps. Steps run through the public
/// API only; with a tracer each public call is a span.
class StepRunner {
 public:
  StepRunner(const Workload& w, Tracer* tracer) : w_(w), tracer_(tracer) {}

  /// Run `sys` forward by `d`: one call untraced, 1-minute slices traced.
  void advance(AvmemSimulation& sys, SimDuration d, const char* what) const {
    if (tracer_ == nullptr) {
      sys.run(d);
      return;
    }
    SpanGuard outer(tracer_, what, &sys);
    const SimDuration slice = SimDuration::minutes(1);
    SimDuration left = d;
    while (left > SimDuration::zero()) {
      const SimDuration step = std::min(left, slice);
      SpanGuard s(tracer_, "run(1min)", &sys);
      sys.run(step);
      left -= step;
    }
  }

  /// Executes `step` on `sys`. kCheckpoint hands back the restored copy.
  std::unique_ptr<AvmemSimulation> run(Step step, AvmemSimulation& sys,
                                       const core::SimulationConfig& config,
                                       Outcomes& out) {
    switch (step) {
      case Step::kSustain:
        advance(sys, w_.sustain, "sustain");
        break;
      case Step::kOpenLoop:
        openLoop(sys, out);
        break;
      case Step::kProbeAnycasts: {
        core::AnycastParams p;
        p.range = core::AvRange::threshold(0.7);
        p.strategy = core::AnycastStrategy::kRetriedGreedy;
        batch(sys, core::AvBand::mid(), p, w_.probeAnycasts, out);
        break;
      }
      case Step::kMulticasts:
        multicasts(sys, out);
        break;
      case Step::kAccuracy:
        accuracy(sys, out);
        break;
      case Step::kCheckpoint:
        // Checkpoints capture maintenance-only instants: one quiet
        // sim-minute lets every ack timer and watchdog of the operations
        // before it expire.
        advance(sys, SimDuration::minutes(1), "quiesce");
        return roundTrip(sys, config);
    }
    return nullptr;
  }

  /// Bytes and walls of the last checkpoint round trip.
  std::size_t checkpointBytes = 0;
  double saveS = 0.0;
  double restoreS = 0.0;

 private:
  void batch(AvmemSimulation& sys, core::AvBand band,
             const core::AnycastParams& p, std::size_t count, Outcomes& out) {
    SpanGuard s(tracer_, "runAnycastBatch", &sys);
    core::AnycastBatchResult r = sys.runAnycastBatch(band, p, count);
    out.missing += count - r.count();
    out.anycasts.insert(out.anycasts.end(), r.results.begin(),
                        r.results.end());
  }

  /// Open loop in simulated time: each batch launches `batchSize`
  /// anycasts 200 ms apart (5 per sim-second), initiators drawn at batch
  /// launch, i.e. at most one batch length before they are due. Batches
  /// cycle LOW/MID/HIGH initiators x {>= 0.7, [0.85, 0.95]} targets.
  void openLoop(AvmemSimulation& sys, Outcomes& out) {
    SpanGuard s(tracer_, "open_loop", &sys);
    const core::AvBand bands[] = {core::AvBand::low(), core::AvBand::mid(),
                                  core::AvBand::high()};
    const core::AvRange targets[] = {core::AvRange::threshold(0.7),
                                     core::AvRange::closed(0.85, 0.95)};
    for (std::size_t b = 0; b < w_.openLoopBatches; ++b) {
      core::AnycastParams p;
      p.range = targets[b % 2];
      p.strategy = core::AnycastStrategy::kRetriedGreedy;
      p.slivers = core::SliverSet::kHsAndVs;
      batch(sys, bands[(b / 2) % 3], p, w_.batchSize, out);
    }
  }

  /// Closed loop: each multicast starts when the previous one finished.
  void multicasts(AvmemSimulation& sys, Outcomes& out) {
    for (std::size_t k = 0; k < w_.multicasts; ++k) {
      core::MulticastParams p;
      p.range = core::AvRange::closed(0.6, 1.0);
      p.mode = (k % 2 == 0) ? core::MulticastMode::kFlood
                            : core::MulticastMode::kGossip;
      const auto initiator = sys.pickInitiator(core::AvBand::low());
      if (!initiator) {
        ++out.missing;
        continue;
      }
      SpanGuard s(tracer_, "runMulticast", &sys);
      out.multicasts.push_back(sys.runMulticast(*initiator, p));
    }
  }

  /// scale_sweep's accuracy probe: each sampled target is queried by its
  /// neighbour and compared with the trace's availability at this instant.
  void accuracy(AvmemSimulation& sys, Outcomes& out) {
    SpanGuard s(tracer_, "accuracy_probe", &sys);
    const std::size_t n = sys.nodeCount();
    const std::size_t sample = std::min(n, w_.accuracySample);
    for (std::size_t i = 0; i < sample; ++i) {
      const auto target = static_cast<net::NodeIndex>(i);
      const auto querier = static_cast<net::NodeIndex>((i + 1) % n);
      ++out.accuracyQueries;
      const auto est = sys.availabilityService().query(querier, target);
      if (!est) continue;
      out.accuracyErrors.push_back(std::abs(*est - sys.trueAvailability(target)));
    }
  }

  std::unique_ptr<AvmemSimulation> roundTrip(
      AvmemSimulation& sys, const core::SimulationConfig& config) {
    std::string bytes;
    auto t0 = Clock::now();
    {
      SpanGuard s(tracer_, "saveCheckpoint", &sys);
      std::ostringstream os;
      sys.saveCheckpoint(os);
      bytes = std::move(os).str();
    }
    saveS = secondsSince(t0);
    checkpointBytes = bytes.size();
    t0 = Clock::now();
    std::unique_ptr<AvmemSimulation> restored;
    {
      SpanGuard s(tracer_, "restore", nullptr);
      {
        SpanGuard c(tracer_, "construct", nullptr);
        restored = std::make_unique<AvmemSimulation>(config);
      }
      SpanGuard r(tracer_, "restoreCheckpoint", nullptr);
      std::istringstream is(bytes);
      restored->restoreCheckpoint(is);
    }
    restoreS = secondsSince(t0);
    return restored;
  }

  const Workload& w_;
  Tracer* tracer_;
};

/// One measured-phase repetition: host-time record plus outcomes.
struct PhaseRecord {
  double wallS = 0.0;
  Counters before;
  Counters after;
  double simHours = 0.0;
  std::uint64_t digest = 0;
  double saveS = 0.0;
  double restoreS = 0.0;
  std::size_t checkpointBytes = 0;
  std::size_t pendingEvents = 0;
  std::size_t materializedTargets = 0;
  double meanDegree = 0.0;
  double hsDegree = 0.0;
  Outcomes outcomes;
};

void append(Outcomes& into, const Outcomes& from) {
  into.anycasts.insert(into.anycasts.end(), from.anycasts.begin(),
                       from.anycasts.end());
  into.multicasts.insert(into.multicasts.end(), from.multicasts.begin(),
                         from.multicasts.end());
  into.accuracyErrors.insert(into.accuracyErrors.end(),
                             from.accuracyErrors.begin(),
                             from.accuracyErrors.end());
  into.accuracyQueries += from.accuracyQueries;
  into.missing += from.missing;
}

std::uint64_t digestOf(const Outcomes& o) {
  Digest d;
  o.digest(d);
  return d.value();
}

/// One pass: setup, then the measured phase. The untraced pass repeats
/// the phase from the setup checkpoint while another repetition fits in
/// `seconds`; every repetition must reproduce the first one's digest.
class Pass {
 public:
  Pass(const Workload& w, const core::SimulationConfig& config, Tracer* tracer)
      : w_(w), config_(config), tracer_(tracer) {}

  void setup() {
    SpanGuard root(tracer_, "setup", nullptr);
    const auto t0 = Clock::now();
    {
      SpanGuard s(tracer_, "construct", nullptr);
      system_ = std::make_unique<AvmemSimulation>(config_);
    }
    constructS = secondsSince(t0);
    if (tracer_ == nullptr) {
      system_->warmup(w_.warmup);
    } else {
      {
        SpanGuard s(tracer_, "warmup(0)", system_.get());
        system_->warmup(SimDuration::zero());
      }
      StepRunner(w_, tracer_).advance(*system_, w_.warmup, "warm-up slices");
    }
    setupS = secondsSince(t0);
    setupCounters = readCounters(*system_);
    setupDigest = stateDigest(*system_);
  }

  void measure(double seconds) {
    std::string setupCheckpoint;
    if (seconds > 0.0) {
      std::ostringstream os;
      system_->saveCheckpoint(os);
      setupCheckpoint = std::move(os).str();
    }
    // As many whole repetitions as fit in `seconds`, at least one.
    double measured = 0.0;
    do {
      if (!phases.empty()) {
        system_ = std::make_unique<AvmemSimulation>(config_);
        std::istringstream is(setupCheckpoint);
        system_->restoreCheckpoint(is);
      }
      phases.push_back(runPhase());
      measured += phases.back().wallS;
      if (phases.back().digest != phases.front().digest) {
        throw MismatchError("phase repetition " +
                            std::to_string(phases.size() - 1) +
                            ", restored from the setup checkpoint, disagrees "
                            "with the first");
      }
    } while (measured + phases.back().wallS <= seconds);
  }

  /// The system after everything measured (kernel probes run on it).
  [[nodiscard]] AvmemSimulation& system() { return *system_; }

  /// The repetition with the median phase wall.
  [[nodiscard]] const PhaseRecord& medianPhase() const {
    std::vector<const PhaseRecord*> sorted;
    for (const PhaseRecord& p : phases) sorted.push_back(&p);
    std::sort(sorted.begin(), sorted.end(),
              [](const PhaseRecord* a, const PhaseRecord* b) {
                return a->wallS < b->wallS;
              });
    return *sorted[(sorted.size() - 1) / 2];
  }

  double constructS = 0.0;
  double setupS = 0.0;
  Counters setupCounters;
  std::uint64_t setupDigest = 0;
  std::vector<PhaseRecord> phases;

 private:
  PhaseRecord runPhase() {
    PhaseRecord rec;
    StepRunner runner(w_, tracer_);
    std::unique_ptr<AvmemSimulation> restored;
    std::size_t afterCheckpoint = w_.steps.size();
    // Outcomes of the steps after the round trip, kept apart so the
    // restored copy's replay can be compared with exactly them.
    Outcomes tail;
    Outcomes* sink = &rec.outcomes;
    const sim::SimTime simStart = system_->simulator().now();
    rec.before = readCounters(*system_);
    const auto t0 = Clock::now();
    {
      SpanGuard root(tracer_, "phase", system_.get());
      for (std::size_t i = 0; i < w_.steps.size(); ++i) {
        if (auto r = runner.run(w_.steps[i], *system_, config_, *sink)) {
          restored = std::move(r);
          afterCheckpoint = i + 1;
          sink = &tail;
        }
      }
    }
    rec.wallS = secondsSince(t0);
    rec.after = readCounters(*system_);
    rec.simHours = (system_->simulator().now() - simStart).toHours();
    rec.saveS = runner.saveS;
    rec.restoreS = runner.restoreS;
    rec.checkpointBytes = runner.checkpointBytes;
    rec.pendingEvents = system_->simulator().pendingEvents();
    if (const avmon::AvmonSystem* av = system_->avmonSystem()) {
      rec.materializedTargets = av->materializedTargets();
    }
    for (std::size_t i = 0; i < system_->nodeCount(); ++i) {
      const core::AvmemNode& n = system_->node(static_cast<net::NodeIndex>(i));
      rec.meanDegree += static_cast<double>(n.degree());
      rec.hsDegree += static_cast<double>(n.horizontalSliver().size());
    }
    rec.meanDegree /= static_cast<double>(system_->nodeCount());
    rec.hsDegree /= static_cast<double>(system_->nodeCount());

    if (restored == nullptr) {
      throw std::logic_error("workload " + w_.name + " has no checkpoint step");
    }
    verifyRestored(*restored, afterCheckpoint, tail);
    append(rec.outcomes, tail);

    Digest d;
    d.add(setupDigest);
    rec.outcomes.digest(d);
    digestDelta(d, rec.before, rec.after);
    d.add(stateDigest(*system_));
    rec.digest = d.value();
    return rec;
  }

  /// The checkpoint gate, outside the timed phase: the restored copy
  /// replays the steps that followed the round trip (untraced), then both
  /// systems run one more sim-minute of maintenance. Every replayed
  /// outcome and the final world must match the original's.
  void verifyRestored(AvmemSimulation& restored, std::size_t from,
                      const Outcomes& originalTail) {
    StepRunner replay(w_, nullptr);
    Outcomes replayed;
    for (std::size_t i = from; i < w_.steps.size(); ++i) {
      replay.run(w_.steps[i], restored, config_, replayed);
    }
    system_->run(SimDuration::minutes(1));
    restored.run(SimDuration::minutes(1));
    if (digestOf(replayed) != digestOf(originalTail) ||
        stateDigest(restored) != stateDigest(*system_)) {
      throw MismatchError(
          "checkpoint-restored system disagrees with the original");
    }
  }

  const Workload& w_;
  core::SimulationConfig config_;
  Tracer* tracer_;
  std::unique_ptr<AvmemSimulation> system_;
};

// --- metrics -----------------------------------------------------------------

using Metrics = std::map<std::string, double>;

/// floor(q * (n - 1)) order statistic, as bench/scale_sweep reports it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::size_t operations(const Outcomes& o) {
  return o.anycasts.size() + o.multicasts.size();
}

Metrics endToEnd(const Workload& w, const Pass& pass) {
  const PhaseRecord& p = pass.medianPhase();
  const Outcomes& o = p.outcomes;
  std::vector<double> anycastMs;
  std::size_t settled = 0;
  for (const core::AnycastResult& r : o.anycasts) {
    if (r.outcome != core::AnycastOutcome::kDelivered) continue;
    anycastMs.push_back(r.latency.toMillis());
    ++settled;
  }
  // A multicast succeeds when its entry anycast reaches the range.
  for (const core::MulticastResult& m : o.multicasts) {
    if (m.reachedRange) ++settled;
  }
  const double ops = static_cast<double>(operations(o));
  Metrics m;
  m["setup_s"] = pass.setupS;
  m["run_s"] = p.wallS;
  m["node_h_per_s"] = static_cast<double>(w.hosts) * p.simHours / p.wallS;
  m["ops_per_s"] = ops / p.wallS;
  m["peak_rss_mb"] = peakRssMb();
  m["delivered_frac"] = ops > 0 ? static_cast<double>(settled) / ops : 0.0;
  m["anycast_p50_ms"] = quantile(anycastMs, 0.50);
  return m;
}

/// Latency tails and multicast quality: per-layer, because a few hundred
/// anycasts or a handful of multicasts make them swing with the seed.
void operationTails(const Outcomes& o, Metrics& m) {
  std::vector<double> anycastMs;
  for (const core::AnycastResult& r : o.anycasts) {
    if (r.outcome == core::AnycastOutcome::kDelivered) {
      anycastMs.push_back(r.latency.toMillis());
    }
  }
  std::vector<double> multicastMs;
  double delivered = 0.0;
  double eligible = 0.0;
  double spam = 0.0;
  for (const core::MulticastResult& r : o.multicasts) {
    delivered += static_cast<double>(r.delivered);
    eligible += static_cast<double>(r.eligible);
    spam += static_cast<double>(r.spam);
    for (const SimDuration l : r.deliveryLatencies) {
      multicastMs.push_back(l.toMillis());
    }
  }
  m["core.anycast_samples"] = static_cast<double>(anycastMs.size());
  m["core.anycast_p99_ms"] = quantile(anycastMs, 0.99);
  m["core.multicast_samples"] = static_cast<double>(multicastMs.size());
  m["core.multicast_reliability"] = eligible > 0 ? delivered / eligible : 0.0;
  m["core.multicast_p50_ms"] = quantile(multicastMs, 0.50);
  m["core.multicast_p99_ms"] = quantile(multicastMs, 0.99);
  m["core.multicast_spam_ratio"] = eligible > 0 ? spam / eligible : 0.0;
}

/// Median ns per call of `body(i)` over 5 timed batches of `batch` calls.
template <class F>
double probeNs(std::size_t batch, F&& body) {
  std::vector<double> ns;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) body(i);
    ns.push_back(secondsSince(t0) * 1e9 / static_cast<double>(batch));
  }
  return median(ns);
}

volatile double probeSink = 0.0;

/// Kernel probes on the warmed system after every measured phase, so they
/// cannot perturb a measured result (they may change state, e.g. the
/// initiator RNG or AVMON's lazily materialized cells).
void kernelProbes(AvmemSimulation& sys, const core::SimulationConfig& config,
                  std::size_t accuracySample, Metrics& m) {
  const std::size_t n = sys.nodeCount();
  const std::vector<core::NodeId>& ids = sys.ids();
  double sink = 0.0;
  const hashing::PairHasher hasher(config.protocol.hashAlgorithm,
                                   config.protocol.hashSeed);
  m["hash.pair_ns"] = probeNs(200'000, [&](std::size_t i) {
    const auto a = ids[i % n].bytes();
    const auto b = ids[(i * 7919 + 1) % n].bytes();
    sink += hasher(a, b);
  });
  const core::AvmemPredicate& pred = sys.predicate();
  m["core.predicate_eval_ns"] = probeNs(200'000, [&](std::size_t i) {
    const double h = static_cast<double>(i % 1009) / 1009.0;
    const double ax = static_cast<double>(i % 101) / 100.0;
    const double ay = static_cast<double>((i * 37) % 97) / 96.0;
    sink += pred.evaluate(h, ax, ay) ? 1.0 : 0.0;
  });
  const sim::SimTime now = sys.simulator().now();
  m["trace.avail_query_ns"] = probeNs(200'000, [&](std::size_t i) {
    sink += sys.trace().availabilityAt(static_cast<net::NodeIndex>(i % n), now);
  });
  const std::size_t sample = std::min(n, accuracySample);
  m["avmon.query_us"] = 1e-3 * probeNs(sample, [&](std::size_t i) {
    const auto est = sys.availabilityService().query(
        static_cast<net::NodeIndex>((i + 1) % n), static_cast<net::NodeIndex>(i));
    sink += est.value_or(0.0);
  });
  m["core.pick_initiator_us"] = 1e-3 * probeNs(20, [&](std::size_t) {
    sink += static_cast<double>(sys.pickInitiator(core::AvBand::mid()).value_or(0));
  });
  probeSink = sink;
}

/// Wall of the named spans minus the maintenance work run inside them
/// (maintenance timers keep firing while an operation is in flight; that
/// time is counted under core.* / avmon.shuffle_*).
double selfSeconds(const Tracer& t, std::string_view name) {
  double s = 0.0;
  for (const Tracer::Span& span : t.spans()) {
    if (span.name != name) continue;
    s += span.endS - span.startS;
    if (span.hasCounters) {
      s -= span.after.maintenanceS() - span.before.maintenanceS();
    }
  }
  return s;
}

Metrics perLayer(const Workload& w, const core::SimulationConfig& config,
                 Pass& traced, const Pass& untraced, const Tracer& tracer) {
  Metrics m;
  // Setup phase: parts + residual = wall.
  const Counters& sc = traced.setupCounters;
  m["setup.wall_s"] = traced.setupS;
  m["setup.construct_s"] = traced.constructS;
  m["setup.core.plan_s"] = sc.corePlanS;
  m["setup.core.commit_s"] = sc.coreCommitS;
  m["setup.avmon.shuffle_plan_s"] = sc.shufflePlanS;
  m["setup.avmon.shuffle_commit_s"] = sc.shuffleCommitS;
  m["setup.residual_s"] = traced.setupS - traced.constructS - sc.maintenanceS();

  // Measured phase: parts + residual = wall.
  const PhaseRecord& p = traced.phases.front();
  const Counters& a = p.before;
  const Counters& b = p.after;
  m["run.wall_s"] = p.wallS;
  m["core.plan_s"] = b.corePlanS - a.corePlanS;
  m["core.commit_s"] = b.coreCommitS - a.coreCommitS;
  m["avmon.shuffle_plan_s"] = b.shufflePlanS - a.shufflePlanS;
  m["avmon.shuffle_commit_s"] = b.shuffleCommitS - a.shuffleCommitS;
  m["core.anycast_s"] = selfSeconds(tracer, "runAnycastBatch");
  m["core.multicast_s"] = selfSeconds(tracer, "runMulticast");
  m["avmon.probe_s"] = selfSeconds(tracer, "accuracy_probe");
  m["snapshot.save_s"] = p.saveS;
  m["snapshot.restore_s"] = p.restoreS;
  double parts = 0.0;
  for (const char* k :
       {"core.plan_s", "core.commit_s", "avmon.shuffle_plan_s",
        "avmon.shuffle_commit_s", "core.anycast_s", "core.multicast_s",
        "avmon.probe_s", "snapshot.save_s", "snapshot.restore_s"}) {
    parts += m[k];
  }
  m["run.residual_s"] = p.wallS - parts;

  // core
  std::vector<double> slotMs;
  const core::MembershipEngine& engine = traced.system().membershipEngine();
  const auto addSamples = [&slotMs](const sim::ShardedScheduler& wheel,
                                    std::size_t from, std::size_t to) {
    const auto& ns = wheel.planWallSamplesNs();
    for (std::size_t i = from; i < to && i < ns.size(); ++i) {
      slotMs.push_back(static_cast<double>(ns[i]) * 1e-6);
    }
  };
  addSamples(engine.discoveryScheduler(), a.discoverySamples,
             b.discoverySamples);
  addSamples(engine.refreshScheduler(), a.refreshSamples, b.refreshSamples);
  const double planned = static_cast<double>(b.plannedMembers - a.plannedMembers);
  m["core.planned_members"] = planned;
  m["core.plan_nodes_per_s"] =
      m["core.plan_s"] > 0.0 ? planned / m["core.plan_s"] : 0.0;
  m["core.plan_slot_p50_ms"] = quantile(slotMs, 0.50);
  m["core.plan_slot_p99_ms"] = quantile(slotMs, 0.99);
  m["core.feed_candidates"] =
      static_cast<double>(b.feedCandidates - a.feedCandidates);
  m["core.mean_degree"] = p.meanDegree;
  m["core.hs_degree"] = p.hsDegree;
  double hops = 0.0;
  double deliveredAnycasts = 0.0;
  for (const core::AnycastResult& r : p.outcomes.anycasts) {
    if (r.outcome != core::AnycastOutcome::kDelivered) continue;
    hops += r.hops;
    deliveredAnycasts += 1.0;
  }
  m["core.anycast_hops_mean"] =
      deliveredAnycasts > 0 ? hops / deliveredAnycasts : 0.0;
  operationTails(p.outcomes, m);

  // sim + process
  const double events = static_cast<double>(b.events - a.events);
  m["sim.events"] = events;
  m["sim.events_per_s"] = events / p.wallS;
  m["sim.pending_events_end"] = static_cast<double>(p.pendingEvents);
  m["sim.maint_timers"] = static_cast<double>(engine.scheduledTimerCount());
  m["sim.pipelined_firings"] =
      static_cast<double>(b.pipelinedFirings - a.pipelinedFirings);
  m["sim.barrier_firings"] =
      static_cast<double>(b.barrierFirings - a.barrierFirings);
  m["sim.discarded_speculations"] =
      static_cast<double>(b.discardedSpeculations - a.discardedSpeculations);
  m["proc.cpu_s"] = b.cpuS - a.cpuS;
  m["proc.parallelism"] = (b.cpuS - a.cpuS) / p.wallS;

  // avmon (the shuffle service lives in src/avmon as well)
  m["avmon.completed_shuffles"] =
      static_cast<double>(b.completedShuffles - a.completedShuffles);
  m["avmon.advanced_epochs"] =
      static_cast<double>(b.advancedEpochs - a.advancedEpochs);
  m["avmon.materialized_targets"] = static_cast<double>(p.materializedTargets);
  m["avmon.pings_sent"] = static_cast<double>(b.pingsSent - a.pingsSent);
  m["avmon.ping_bytes"] = static_cast<double>(b.pingBytes - a.pingBytes);
  const Outcomes& o = p.outcomes;
  m["avmon.coverage"] =
      o.accuracyQueries > 0 ? static_cast<double>(o.accuracyErrors.size()) /
                                  static_cast<double>(o.accuracyQueries)
                            : 0.0;
  double errSum = 0.0;
  for (const double e : o.accuracyErrors) errSum += e;
  m["avmon.mae"] = o.accuracyErrors.empty()
                       ? 0.0
                       : errSum / static_cast<double>(o.accuracyErrors.size());

  // net
  const double sent = static_cast<double>(b.net.sent - a.net.sent);
  const double netDelivered =
      static_cast<double>(b.net.delivered - a.net.delivered);
  m["net.sent"] = sent;
  m["net.delivered"] = netDelivered;
  m["net.delivered_ratio"] = sent > 0 ? netDelivered / sent : 0.0;
  m["net.rejected"] = static_cast<double>(b.net.rejected - a.net.rejected);
  m["net.dropped_offline"] =
      static_cast<double>(b.net.droppedOffline - a.net.droppedOffline);
  m["net.ack_timeouts"] =
      static_cast<double>(b.net.ackTimeouts - a.net.ackTimeouts);
  m["net.bytes_sent"] = static_cast<double>(b.net.bytesSent - a.net.bytesSent);

  // trace, snapshot
  m["trace.model_mb"] =
      static_cast<double>(traced.system().trace().memoryFootprintBytes()) /
      (1024.0 * 1024.0);
  m["snapshot.bytes"] = static_cast<double>(p.checkpointBytes);
  m["snapshot.restore_mb_per_s"] =
      static_cast<double>(p.checkpointBytes) / (1024.0 * 1024.0) / p.restoreS;

  // Tracing overhead: traced minus untraced wall, same seed, same process.
  m["tracing.setup_overhead_s"] = traced.setupS - untraced.setupS;
  m["tracing.run_overhead_s"] = p.wallS - untraced.phases.front().wallS;
  m["tracing.spans"] = static_cast<double>(tracer.spans().size());

  kernelProbes(traced.system(), config, w.accuracySample, m);
  return m;
}

/// Output checks beyond the determinism gates. Returns what is wrong.
std::vector<std::string> checkOutputs(const Workload& w, const Pass& pass) {
  std::vector<std::string> bad;
  for (const PhaseRecord& p : pass.phases) {
    const Outcomes& o = p.outcomes;
    for (const core::AnycastResult& r : o.anycasts) {
      if (r.outcome == core::AnycastOutcome::kDelivered &&
          (r.hops < 0 || r.latency < SimDuration::zero())) {
        bad.push_back("delivered anycast with negative hops or latency");
        break;
      }
    }
    for (const core::MulticastResult& m : o.multicasts) {
      if (m.delivered > m.eligible ||
          m.deliveryLatencies.size() != m.delivered) {
        bad.push_back("multicast delivery accounting is inconsistent");
        break;
      }
    }
    if (o.accuracyQueries == 0) bad.push_back("accuracy probe did not run");
    for (const double e : o.accuracyErrors) {
      // The oracle answers ground truth itself; AVMON estimates are
      // fractions of samples, so errors stay within [0, 1].
      if (!(e >= 0.0 && e <= 1.0) || (!w.avmon && e != 0.0)) {
        bad.push_back("availability answer out of range");
        break;
      }
    }
    if (p.checkpointBytes == 0) bad.push_back("empty checkpoint");
    if (p.simHours * 3600.0 + 1e-9 < w.sustain.toSeconds() &&
        std::find(w.steps.begin(), w.steps.end(), Step::kSustain) !=
            w.steps.end()) {
      bad.push_back("phase advanced less simulated time than sustained");
    }
    if (operations(o) == 0) bad.push_back("no management operation ran");
  }
  return bad;
}

// --- command line ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 20070101;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string traceOut;
};

bool parseU64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s.size() > 20) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (UINT64_MAX - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

std::optional<Args> parseArgs(int argc, char** argv) {
  Args a;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view k = argv[i];
    if (k == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string_view v = argv[++i];
    if (k == "--workload") {
      a.workload = std::string(v);
      haveWorkload = true;
    } else if (k == "--seed") {
      if (!parseU64(v, a.seed)) return std::nullopt;
    } else if (k == "--seconds") {
      std::uint64_t s = 0;
      if (!parseU64(v, s) || s == 0 || s > 3600) return std::nullopt;
      a.seconds = static_cast<double>(s);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.traceOut = std::string(v);
    } else {
      return std::nullopt;
    }
  }
  if (!haveWorkload) return std::nullopt;
  return a;
}

void printMetrics(std::ostream& out, const char* key, const Metrics& m) {
  out << ", \"" << key << "\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, value] : m) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << name << "\": " << buf;
    first = false;
  }
  out << "}";
}

#ifndef AVBENCH_CXX_FLAGS
#define AVBENCH_CXX_FLAGS "unknown"
#endif

constexpr const char* kBenchVersion = "perfbench-1";

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parseArgs(argc, argv);
  if (!args) {
    std::cerr << "usage: avmem_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--trace-out FILE]\n";
    return kExitUsage;
  }
  const std::optional<Workload> w = makeWorkload(args->workload, args->smoke);
  if (!w) {
    std::cerr << "avmem_perfbench: unknown workload '" << args->workload
              << "' (manage-20k | avmon-10k)\n";
    return kExitUsage;
  }
  if (args->trace && args->traceOut.empty()) {
    std::cerr << "avmem_perfbench: --trace 1 needs --trace-out FILE\n";
    return kExitUsage;
  }
  const core::SimulationConfig config = makeConfig(*w, args->seed);
  try {
    Pass untraced(*w, config, nullptr);
    std::cerr << "perfbench: " << w->name << " seed " << args->seed
              << ": setup...\n";
    untraced.setup();
    std::cerr << "perfbench: setup " << untraced.setupS
              << " s; measured phase...\n";
    // A traced run measures one untraced repetition: its wall is the
    // baseline of the tracing overhead.
    untraced.measure(args->trace ? 0.0 : args->seconds);
    const std::uint64_t simDigest = untraced.phases.front().digest;
    std::vector<std::string> problems = checkOutputs(*w, untraced);

    Metrics layers;
    std::size_t spans = 0;
    if (args->trace) {
      Tracer tracer(Clock::now());
      Pass traced(*w, config, &tracer);
      std::cerr << "perfbench: traced pass...\n";
      traced.setup();
      traced.measure(0.0);
      if (traced.setupDigest != untraced.setupDigest ||
          traced.phases.front().digest != simDigest) {
        throw MismatchError("traced and untraced passes disagree");
      }
      const std::vector<std::string> more = checkOutputs(*w, traced);
      problems.insert(problems.end(), more.begin(), more.end());
      layers = perLayer(*w, config, traced, untraced, tracer);
      tracer.write(args->traceOut);
      spans = tracer.spans().size();
    }
    const Metrics e2e = endToEnd(*w, untraced);
    for (const std::string& p : problems) {
      std::cerr << "perfbench: output check failed: " << p << "\n";
    }

    const Outcomes& o = untraced.phases.front().outcomes;
    std::ostringstream out;
    out << "{\"workload\": \"" << w->name << "\", \"seed\": " << args->seed
        << ", \"hosts\": " << w->hosts << ", \"smoke\": "
        << (args->smoke ? "true" : "false")
        << ", \"bench_version\": \"" << kBenchVersion << "\""
        << ", \"plan_threads\": " << untraced.system().maintenanceThreads()
        << ", \"config_fingerprint\": \""
        << hex(snapshot::configFingerprint(config)) << "\""
        << ", \"setup_digest\": \"" << hex(untraced.setupDigest) << "\""
        << ", \"sim_digest\": \"" << hex(simDigest) << "\""
        << ", \"view_digest\": \""
        << hex(untraced.system().shuffleService().viewDigest()) << "\""
        << ", \"compiler\": \"" << __VERSION__ << "\""
        << ", \"cxx_flags\": \"" << AVBENCH_CXX_FLAGS << "\""
        << ", \"phase_walls_s\": [";
    for (std::size_t i = 0; i < untraced.phases.size(); ++i) {
      out << (i ? ", " : "") << untraced.phases[i].wallS;
    }
    out << "]"
        << ", \"spans\": " << spans
        << ", \"attempted\": " << operations(o) + o.missing
        << ", \"failed\": " << o.missing
        << ", \"correct\": " << (problems.empty() ? "true" : "false");
    printMetrics(out, "end_to_end", e2e);
    if (args->trace) printMetrics(out, "per_layer", layers);
    out << "}\n";
    std::cout << out.str() << std::flush;
    return 0;
  } catch (const MismatchError& e) {
    std::cerr << "perfbench: determinism gate failed: " << e.what() << "\n";
    return kExitMismatch;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
