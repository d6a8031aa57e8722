// The checkpoint orchestrator. Every section's layout is described once,
// by an io() that both archives run (snapshot_io.hpp): save gathers the
// live owners' state into a World and writes each section from it;
// restore parses each section into a fresh World, validates it, and only
// then installs it and re-arms the saved events. The owners are reached
// through the CheckpointAccess friend seam. See checkpoint.hpp for the
// contract.
#include "snapshot/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/simulation.hpp"
#include "fault/fault_injector.hpp"
#include "trace/markov_churn.hpp"

namespace avmem::snapshot {

namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

// Section tags. A reader skips tags it does not know; adding a section is
// forward-compatible, changing an existing section's layout bumps
// kFormatVersion.
constexpr std::uint32_t kSecSim = fourcc('S', 'I', 'M', 'U');
constexpr std::uint32_t kSecNodes = fourcc('N', 'O', 'D', 'S');
constexpr std::uint32_t kSecEngine = fourcc('E', 'N', 'G', 'S');
constexpr std::uint32_t kSecWheels = fourcc('W', 'H', 'L', 'S');
constexpr std::uint32_t kSecShuffle = fourcc('S', 'H', 'F', 'V');
constexpr std::uint32_t kSecChannel = fourcc('C', 'H', 'A', 'N');
constexpr std::uint32_t kSecFeed = fourcc('F', 'E', 'E', 'D');
constexpr std::uint32_t kSecNetwork = fourcc('N', 'E', 'T', 'W');
constexpr std::uint32_t kSecRng = fourcc('S', 'R', 'N', 'G');
constexpr std::uint32_t kSecMarkov = fourcc('M', 'R', 'K', 'V');
constexpr std::uint32_t kSecFault = fourcc('F', 'A', 'L', 'T');
constexpr std::uint32_t kSecAvmon = fourcc('A', 'V', 'M', 'N');

// SimTime arrays are serialized as raw memory; keep that honest.
static_assert(std::is_trivially_copyable_v<sim::SimTime> &&
                  sizeof(sim::SimTime) == sizeof(std::int64_t),
              "SimTime layout changed: bump kFormatVersion and revisit");

// --- config fingerprint -----------------------------------------------------

/// SplitMix64-chained field mixer; the field ORDER below is part of the
/// format (reordering fields silently invalidates every old checkpoint, so
/// treat any change here like a version bump).
struct Mixer {
  std::uint64_t state = 0x243F6A8885A308D3ull;  // pi fractional bits

  void add(std::uint64_t v) noexcept {
    state ^= v;
    state = sim::splitMix64(state) ^ (v * 0x9E3779B97F4A7C15ull);
  }
  void add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }
  void add(sim::SimDuration d) noexcept {
    add(static_cast<std::uint64_t>(d.toMicros()));
  }

  [[nodiscard]] std::uint64_t result() noexcept {
    std::uint64_t s = state;
    return sim::splitMix64(s);
  }
};

// --- staged state and its layouts -------------------------------------------

/// A sliver's four parallel arrays (SliverList keeps them private).
struct SliverArrays {
  std::vector<net::NodeIndex> peers;
  std::vector<double> avs;
  std::vector<sim::SimTime> added;
  std::vector<sim::SimTime> refreshed;

  void assign(const core::SliverList& sl) {
    peers.assign(sl.peers().begin(), sl.peers().end());
    avs.assign(sl.cachedAvs().begin(), sl.cachedAvs().end());
    added.assign(sl.addedTimes().begin(), sl.addedTimes().end());
    refreshed.assign(sl.refreshedTimes().begin(), sl.refreshedTimes().end());
  }
  [[nodiscard]] core::SliverList release() {
    core::SliverList sl;
    sl.restore(std::move(peers), std::move(avs), std::move(added),
               std::move(refreshed));
    return sl;
  }
};

template <class Ar>
void io(Ar& ar, SliverArrays& s) {
  ar.array(s.peers);
  ar.array(s.avs);
  ar.array(s.added);
  ar.array(s.refreshed);
  ar.expect(s.avs.size() == s.peers.size() &&
                s.added.size() == s.peers.size() &&
                s.refreshed.size() == s.peers.size(),
            "checkpoint sliver: ragged arrays");
}

template <class Ar>
void io(Ar& ar, core::NodeStats& st) {
  ar(st.discoveryRounds, st.refreshRounds, st.neighborsDiscovered,
     st.neighborsEvicted, st.availabilityQueries, st.verificationQueries,
     st.messagesVerified, st.messagesRejected);
}

struct NodeRecord {
  double selfAv = 0.0;
  core::NodeStats stats;
  SliverArrays hs;
  SliverArrays vs;
};

template <class Ar>
void io(Ar& ar, NodeRecord& r) {
  ar(r.selfAv);
  io(ar, r.stats);
  io(ar, r.hs);
  io(ar, r.vs);
}

/// ShuffleMsg goes field-by-field: the struct has padding, and padding
/// bytes are indeterminate — serializing them would break the round-trip
/// byte-identity property (and leak uninitialized memory into the file).
template <class Ar>
void io(Ar& ar, net::ShuffleMsg& m) {
  auto kind = static_cast<std::uint8_t>(m.kind);
  ar(kind);
  ar.expect(kind <= static_cast<std::uint8_t>(net::ShuffleMsg::Kind::kTimeout),
            "checkpoint channel: unknown message kind");
  m.kind = static_cast<net::ShuffleMsg::Kind>(kind);
  ar(m.src, m.dst, m.payloadOffset, m.payloadCount, m.echoOffset,
     m.echoCount, m.seq, m.order, m.dueUs, m.rawDueUs);
}

/// One saved armed wheel slot. `seq` is a queue tie-break key: raw while
/// collecting, then normalized to a dense rank (see rankSavedEvents)
/// before it is written.
struct SlotRecord {
  std::uint32_t slot = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;
};

template <class Ar>
void io(Ar& ar, SlotRecord& r) {
  ar(r.slot, r.fireAtUs, r.seq);
}

/// A single-owner periodic timer: the AVMON epoch fold, an attacker stage.
struct TimerRecord {
  std::uint8_t running = 0;
  std::int64_t fireAtUs = 0;
  std::uint64_t seq = 0;  ///< tie-break rank (see rankSavedEvents)
};

template <class Ar>
void io(Ar& ar, TimerRecord& t) {
  ar(t.running, t.fireAtUs, t.seq);
}

/// One attacker-campaign stage (FALT section).
struct AttackRecord {
  TimerRecord timer;
  std::uint64_t sweepsDone = 0;
};

template <class Ar>
void io(Ar& ar, AttackRecord& a) {
  io(ar, a.timer);
  ar(a.sweepsDone);
}

template <class Ar>
void io(Ar& ar, avmon::AvmonSystem::SavedState::Cell& cell) {
  ar(cell.target);
  ar.array(cell.samples);
  ar.array(cell.up);
}

/// A bulk array as a list element (coarse views, feed buckets).
template <class Ar>
void io(Ar& ar, std::vector<net::NodeIndex>& bulk) {
  ar.array(bulk);
}

/// Payload bytes the smallest `T` occupies — what each element of a list
/// must leave in the payload before a reader may allocate for it.
template <class T>
std::size_t minBytesOf() {
  static const std::size_t bytes = [] {
    SectionWriter probe;
    T empty{};
    io(probe, empty);
    return probe.buffer().size();
  }();
  return bytes;
}

/// u64 length, then each element's io().
template <class Ar, class T>
void ioList(Ar& ar, std::vector<T>& list, const char* what,
            std::size_t exact = kAnyCount) {
  std::size_t n = list.size();
  ar.count(n, minBytesOf<T>(), what, exact);
  list.resize(n);
  for (T& e : list) io(ar, e);
}

/// The simulation's availability model may be wrapped in a fault-plan
/// outage overlay; backend-specific state (the Markov cursor cache)
/// lives on the inner model either way.
template <class Model>
Model* unwrapOverlay(Model* m) {
  using Overlay = std::conditional_t<std::is_const_v<Model>,
                                     const fault::OutageOverlayModel,
                                     fault::OutageOverlayModel>;
  if (auto* ov = dynamic_cast<Overlay*>(m)) return &ov->inner();
  return m;
}

/// Everything a checkpoint carries, staged outside the live owners: save
/// gathers it before writing a byte, restore parses the whole file into
/// it before mutating anything.
struct World {
  /// The world's shape — which owners exist and how large they are. The
  /// config fingerprint pins it, so the saving system and a restore
  /// target agree on it; the reader validates every count against it.
  explicit World(const AvmemSimulation& sim)
      : hosts(sim.nodeCount()),
        feed(sim.candidateFeed() != nullptr),
        feedBuckets(feed ? sim.candidateFeed()->bucketCount() : 0),
        fault(sim.faultInjector() != nullptr),
        attackStages(fault ? sim.faultInjector()->plan().attacks.size() : 0),
        avmon(sim.avmonSystem() != nullptr),
        markov(dynamic_cast<const trace::MarkovChurnModel*>(
                   unwrapOverlay(&sim.trace())) != nullptr) {}

  std::size_t hosts;
  bool feed;
  std::size_t feedBuckets;
  bool fault;
  std::size_t attackStages;
  bool avmon;
  bool markov;

  std::int64_t nowUs = 0;
  std::uint64_t executed = 0;
  /// Restore's staging table; a save leaves it empty (see node()).
  std::vector<NodeRecord> nodes;
  /// The system being saved, when saving.
  const AvmemSimulation* live = nullptr;
  NodeRecord scratch;
  core::MembershipEngineStats engine;
  /// Discovery, refresh and shuffle wheels, in that order.
  std::array<std::vector<SlotRecord>, 3> wheels;
  avmon::ShuffleService::SavedState shuffle;
  std::uint64_t wakeSeq = 0;
  core::CandidateFeed::SavedState feedState;
  std::uint64_t sealSeq = 0;
  net::Network::SavedState network;
  fault::FaultInjector::SavedState faultState;
  std::vector<AttackRecord> attacks;
  avmon::AvmonSystem::SavedState avmonState;
  TimerRecord avmonTimer;
  std::array<std::uint64_t, 4> facadeRng{};
  std::vector<std::uint64_t> markovCursors;

  /// NODS record `i`: the staging entry on restore; on save, a scratch
  /// record refilled from live node `i`, so a save never holds a second
  /// copy of every sliver.
  NodeRecord& node(std::size_t i) {
    if (live == nullptr) return nodes[i];
    const core::AvmemNode& n = live->node(static_cast<net::NodeIndex>(i));
    scratch.selfAv = n.selfAvailability();
    scratch.stats = n.stats();
    scratch.hs.assign(n.horizontalSliver());
    scratch.vs.assign(n.verticalSliver());
    return scratch;
  }
};

/// Whether a world carries a section.
enum class Need : std::uint8_t {
  kAbsent,    ///< no such owner: a section for it is a format error
  kRequired,  ///< always written; restoring without it is a format error
  kOptional,  ///< a pure cache: always written, but restore can do without
};

/// Every section in file order: its tag, whether this world carries it,
/// and its layout. Save writes each carried section from `w`; restore
/// parses each tag it meets into `w` with the same body.
template <class Visit>
void ioSections(World& w, Visit&& visit) {
  const auto carried = [](bool has) {
    return has ? Need::kRequired : Need::kAbsent;
  };

  // SIMU: the clock and the executed-event count. Restoring `executed`
  // keeps the scale-sweep `events` column comparable across the restore
  // boundary (it is one of the thread-invariance keys).
  visit(kSecSim, Need::kRequired, [&](auto& ar) { ar(w.nowUs, w.executed); });

  // NODS: per-node protocol state, SoA sliver arrays raw.
  visit(kSecNodes, Need::kRequired, [&](auto& ar) {
    std::size_t count = w.hosts;
    ar.count(count, minBytesOf<NodeRecord>(), "checkpoint nodes", w.hosts);
    for (std::size_t i = 0; i < count; ++i) io(ar, w.node(i));
  });

  // ENGS: engine counters.
  visit(kSecEngine, Need::kRequired, [&](auto& ar) {
    ar(w.engine.discoveryRounds, w.engine.refreshRounds,
       w.engine.skippedOffline, w.engine.feedCandidates);
  });

  // WHLS: the three timing wheels' armed slots — fire times and tie-break
  // ranks only; slot *membership* is reproduced from RNG state on restore
  // and cross-checked against these records.
  visit(kSecWheels, Need::kRequired, [&](auto& ar) {
    for (auto& wheel : w.wheels) ioList(ar, wheel, "checkpoint wheel");
  });

  // SHFV: coarse views + rounds + stream seeds + the post-bootstrap RNG.
  visit(kSecShuffle, Need::kRequired, [&](auto& ar) {
    avmon::ShuffleService::SavedState& s = w.shuffle;
    ioList(ar, s.views, "checkpoint views", w.hosts);
    ar.array(s.rounds);
    ar(s.completedShuffles, s.planSeed, s.wireSeed, s.rngState);
  });

  // CHAN: every in-flight shuffle leg (heap array order preserved — pops
  // depend on the layout), the arena, ack bookkeeping, the armed wake
  // (instant + tie-break rank) and the wire RNG.
  visit(kSecChannel, Need::kRequired, [&](auto& ar) {
    net::ShuffleChannel::SavedState& ch = w.shuffle.channel;
    ioList(ar, ch.heap, "checkpoint channel heap");
    ar.array(ch.arena);
    ar(ch.liveEntries);
    ar.array(ch.awaitingAck);
    ar(ch.nextSeq, ch.nextOrder, ch.scheduledWakeUs, w.wakeSeq,
       ch.rngState);
  });

  // FEED: both directory sides + the seal timer.
  visit(kSecFeed, carried(w.feed), [&](auto& ar) {
    core::CandidateFeed::SavedState& f = w.feedState;
    ioList(ar, f.frozenBuckets, "checkpoint feed buckets", w.feedBuckets);
    ar(f.frozenPopulation);
    ioList(ar, f.buildingBuckets, "checkpoint feed buckets", w.feedBuckets);
    ar(f.buildingPopulation);
    ar.array(f.publishedInEpoch);
    ar.expect(f.publishedInEpoch.size() == w.hosts,
              "checkpoint feed: population mismatch");
    ar(f.sealedEpochs, f.sealNextFireAtUs, w.sealSeq);
  });

  // NETW: wire counters + the latency RNG.
  visit(kSecNetwork, Need::kRequired, [&](auto& ar) {
    net::NetworkStats& st = w.network.stats;
    ar(st.sent, st.delivered, st.rejected, st.droppedOffline, st.acksSent,
       st.ackTimeouts, st.bytesSent, st.duplicated, st.injectedDrops,
       w.network.rngState);
  });

  // FALT: the fault injector's counter streams, tallies, and attacker
  // campaign timers. The campaign itself is not serialized — the config
  // fingerprint already pins it.
  visit(kSecFault, carried(w.fault), [&](auto& ar) {
    fault::FaultStats& st = w.faultState.stats;
    ar(w.faultState.wireSeq, st.injectedDrops, st.duplicated, st.delayed,
       st.attackSweeps, st.attackTargets, st.attackAccepted);
    ioList(ar, w.attacks, "checkpoint fault attacks", w.attackStages);
  });

  // AVMN: the avmon overlay — fold cursor, ping accounting, epoch-task
  // timer, and the materialized counter cells (monitor lists are a pure
  // hash, rebuilt and cross-checked on restore).
  visit(kSecAvmon, carried(w.avmon), [&](auto& ar) {
    avmon::AvmonSystem::SavedState& a = w.avmonState;
    ar(a.advancedEpochs, a.pings.sent, a.pings.delivered,
       a.pings.lostToFaults, a.pings.bytes);
    io(ar, w.avmonTimer);
    ioList(ar, a.cells, "checkpoint avmon cells");
    ar.expect(a.cells.size() <= w.hosts,
              "checkpoint avmon: cell count exceeds population");
  });

  // SRNG: the facade RNG (pickInitiator draws) — restoring it keeps
  // post-restore anycast batches identical to a straight-through run.
  visit(kSecRng, Need::kRequired, [&](auto& ar) { ar(w.facadeRng); });

  // MRKV: the Markov trace's per-host cursors. Pure caches — omitting
  // them changes no answer — but restoring them makes the first
  // post-restore epoch O(1) per host instead of a block replay.
  visit(kSecMarkov, w.markov ? Need::kOptional : Need::kAbsent,
        [&](auto& ar) { ar.array(w.markovCursors); });
}

std::string tagName(std::uint32_t tag) {
  std::string name(4, '?');
  for (std::size_t i = 0; i < 4; ++i) {
    name[i] = static_cast<char>((tag >> (8 * i)) & 0xFFu);
  }
  return name;
}

// --- event accounting --------------------------------------------------------

std::vector<SlotRecord> collectWheel(const sim::Simulator& simlr,
                                     const sim::ShardedScheduler& wheel,
                                     const char* name) {
  std::vector<SlotRecord> recs;
  recs.reserve(wheel.activeShardCount());
  for (std::size_t s = 0; s < wheel.shardCount(); ++s) {
    const sim::PeriodicTask* task = wheel.slotTask(s);
    if (task == nullptr) continue;
    std::uint64_t seq = 0;
    if (!simlr.eventSeqOf(task->pendingHandle(), seq)) {
      throw CheckpointUnsupportedError(
          std::string("checkpoint: ") + name +
          " wheel slot timer is not live (mid-firing save?)");
    }
    recs.push_back({static_cast<std::uint32_t>(s),
                    task->nextFireAt().toMicros(), seq});
  }
  return recs;
}

/// Replace every saved event's raw queue seq with its dense rank in
/// (fireAt, rawSeq) order. The raw counters are run-history artifacts
/// (they keep growing over a run); ranks carry exactly the information
/// restore needs — the relative order of same-instant events — and make
/// serialization canonical: a restored world re-saves byte-identically,
/// because its fresh queue hands out seqs 0..k-1 in precisely this order
/// (the roundtrip property test pins this down).
void rankSavedEvents(std::vector<std::uint64_t*> seqs,
                     const std::vector<std::int64_t>& ats) {
  std::vector<std::size_t> idx(seqs.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return ats[a] != ats[b] ? ats[a] < ats[b] : *seqs[a] < *seqs[b];
  });
  std::vector<std::uint64_t> ranks(seqs.size());
  for (std::size_t r = 0; r < idx.size(); ++r) ranks[idx[r]] = r;
  for (std::size_t i = 0; i < seqs.size(); ++i) *seqs[i] = ranks[i];
}

/// Save-time gate: the format captures maintenance-quiescent worlds only.
/// Every live event must be one of the known re-armable owners; anything
/// else (an anycast timeout, a multicast horizon, a test's ad-hoc timer)
/// cannot be reconstructed from state and must fail loudly.
void verifyEventAccounting(const sim::Simulator& simulator,
                           const core::MembershipEngine& engine,
                           const avmon::ShuffleService& shuffle,
                           bool hasFeed, std::size_t attackTimers,
                           bool avmonTask) {
  std::size_t accounted = engine.discoveryScheduler().activeShardCount() +
                          engine.refreshScheduler().activeShardCount() +
                          shuffle.scheduler().activeShardCount();
  if (shuffle.channel().scheduledWakeMicros() !=
      net::ShuffleChannel::kNoWakeSaved) {
    ++accounted;
  }
  if (hasFeed) ++accounted;  // the periodic seal task
  accounted += attackTimers;  // running attacker-campaign timers (FALT)
  if (avmonTask) ++accounted;  // the AVMON epoch-fold timer (AVMN)
  const std::size_t live = simulator.liveEventCount();
  if (live != accounted) {
    throw CheckpointUnsupportedError(
        "checkpoint: " + std::to_string(live) + " live events but only " +
        std::to_string(accounted) +
        " accounted maintenance timers — an unfinished management "
        "operation (anycast/multicast) cannot be checkpointed");
  }
}

/// Tie-break seq of a pending event, required live.
std::uint64_t liveSeqOf(const sim::Simulator& simulator,
                        const sim::EventHandle& h, const char* what) {
  std::uint64_t seq = 0;
  if (!simulator.eventSeqOf(h, seq)) {
    throw CheckpointUnsupportedError(
        std::string("checkpoint: ") + what + " event is not live");
  }
  return seq;
}

/// A single-owner timer's saved record (all zero when it is not running).
TimerRecord timerOf(const sim::Simulator& simulator,
                    const sim::PeriodicTask& task, const char* what) {
  if (!task.running()) return {};
  return {1, task.nextFireAt().toMicros(),
          liveSeqOf(simulator, task.pendingHandle(), what)};
}

/// One deferred re-arm, executed in ascending (fireAt, savedSeq) order so
/// the fresh event queue reproduces every same-instant tie outcome.
struct ArmRequest {
  std::int64_t atUs = 0;
  std::uint64_t savedSeq = 0;
  std::function<void()> arm;
};

}  // namespace

std::uint64_t configFingerprint(const SimulationConfig& config) {
  Mixer m;
  // Trace generator / model parameters.
  const trace::OvernetTraceConfig& t = config.trace;
  m.add(static_cast<std::uint64_t>(t.hosts));
  m.add(static_cast<std::uint64_t>(t.epochs));
  m.add(t.epochDuration);
  m.add(t.seed);
  m.add(t.lowWeight);
  m.add(t.lowMin);
  m.add(t.lowMax);
  m.add(t.midWeight);
  m.add(t.midMin);
  m.add(t.midMax);
  m.add(t.highWeight);
  m.add(t.highMin);
  m.add(t.highMax);
  m.add(t.serverWeight);
  m.add(t.serverMin);
  m.add(t.serverMax);
  m.add(t.meanSessionEpochs);
  m.add(t.diurnalAmplitude);
  // Protocol.
  const core::ProtocolConfig& p = config.protocol;
  m.add(p.epsilon);
  m.add(p.c1);
  m.add(p.c2);
  m.add(p.discoveryPeriod);
  m.add(p.refreshPeriod);
  m.add(p.cushion);
  m.add(static_cast<std::uint64_t>(p.hashAlgorithm));
  m.add(p.hashSeed);
  // Shuffle substrate (pipeline options excluded — dispatch-mode-free).
  const avmon::ShuffleConfig& sh = config.shuffle;
  m.add(static_cast<std::uint64_t>(sh.viewSize));
  m.add(static_cast<std::uint64_t>(sh.gossipLength));
  m.add(sh.period);
  m.add(static_cast<std::uint64_t>(sh.shards));
  m.add(sh.ackTimeout);
  m.add(sh.deliveryQuantum);
  // Backend selection and parameters.
  m.add(static_cast<std::uint64_t>(config.backend));
  m.add(config.noisyMaxError);
  m.add(config.noisyStaleness);
  m.add(config.agedAlpha);
  m.add(config.centralSnapshotPeriod);
  m.add(config.avmon.expectedMonitorsPerTarget);
  m.add(static_cast<std::uint64_t>(config.avmon.hashAlgorithm));
  m.add(config.avmon.hashSeed);
  m.add(static_cast<std::uint64_t>(config.traceBackend));
  m.add(static_cast<std::uint64_t>(config.predicate));
  m.add(config.randomOverlayP);
  // Candidate feed.
  const core::CandidateFeedConfig& f = config.candidateFeed;
  m.add(static_cast<std::uint64_t>(f.enabled ? 1 : 0));
  m.add(static_cast<std::uint64_t>(f.buckets));
  m.add(static_cast<std::uint64_t>(f.horizontalScanBudget));
  m.add(static_cast<std::uint64_t>(f.verticalScanBudget));
  m.add(static_cast<std::uint64_t>(f.maxCandidates));
  m.add(f.thresholdSlack);
  m.add(f.epochPeriod);
  // Remaining result-determining knobs. maintenanceThreads,
  // pipelinedDispatch, and the checkpoint paths are deliberately absent:
  // a checkpoint restores at any thread count, in either dispatch mode.
  m.add(static_cast<std::uint64_t>(config.useCoarseViewOverlay ? 1 : 0));
  m.add(static_cast<std::uint64_t>(config.pdfBins));
  m.add(config.seed);
  m.add(static_cast<std::uint64_t>(config.maintenanceShards));
  // The fault campaign is world state — a mid-campaign checkpoint only
  // restores into the same campaign. faultPlanPath is I/O plumbing and
  // stays excluded (the *parsed contents* are what matter); an empty
  // plan fingerprints to 0, keeping faultless checkpoints stable.
  m.add(config.faultPlan.fingerprint());
  return m.result();
}

// --- save -------------------------------------------------------------------

void CheckpointAccess::save(const AvmemSimulation& sim, std::ostream& out) {
  if (!sim.started_) {
    throw CheckpointUnsupportedError(
        "checkpoint: system not started (nothing warm to save)");
  }
  if (sim.config_.backend == core::AvailabilityBackend::kAged ||
      sim.config_.backend == core::AvailabilityBackend::kCentral) {
    throw CheckpointUnsupportedError(
        "checkpoint: the aged and central availability backends hold "
        "per-query estimator state the format does not capture (the avmon "
        "overlay checkpoints via its AVMN section as of v3)");
  }
  std::size_t runningAttackTimers = 0;
  for (const auto& task : sim.attackTasks_) {
    if (task->running()) ++runningAttackTimers;
  }
  const bool avmonTaskRunning = sim.avmonSystem_ != nullptr &&
                                sim.avmonSystem_->epochTask().running();
  verifyEventAccounting(*sim.sim_, *sim.engine_, *sim.shuffle_,
                        sim.feed_ != nullptr, runningAttackTimers,
                        avmonTaskRunning);

  // Gather every owner's state and every saved event's (fire time, raw
  // queue seq) up front; the seqs are then normalized to dense ranks so
  // the file is canonical (see rankSavedEvents).
  World w(sim);
  w.live = &sim;
  w.nowUs = sim.sim_->now().toMicros();
  w.executed = sim.sim_->executedEvents();
  w.engine = sim.engine_->stats();
  w.wheels = {
      collectWheel(*sim.sim_, sim.engine_->discoveryScheduler(), "discovery"),
      collectWheel(*sim.sim_, sim.engine_->refreshScheduler(), "refresh"),
      collectWheel(*sim.sim_, sim.shuffle_->scheduler(), "shuffle")};
  w.shuffle = sim.shuffle_->saveState();
  const bool haveWake =
      w.shuffle.channel.scheduledWakeUs != net::ShuffleChannel::kNoWakeSaved;
  if (haveWake) {
    w.wakeSeq = liveSeqOf(*sim.sim_, sim.shuffle_->channel().wakeHandle(),
                          "channel wake");
  }
  if (sim.feed_ != nullptr) {
    w.feedState = sim.feed_->saveState();
    w.sealSeq = liveSeqOf(*sim.sim_, sim.feed_->sealTask().pendingHandle(),
                          "feed seal");
  }
  w.network = sim.network_->saveState();
  if (sim.fault_ != nullptr) {
    w.faultState = sim.fault_->saveState();
    for (std::size_t i = 0; i < sim.attackTasks_.size(); ++i) {
      w.attacks.push_back(
          {timerOf(*sim.sim_, *sim.attackTasks_[i], "attack campaign"),
           w.faultState.attackSweepsDone[i]});
    }
  }
  if (sim.avmonSystem_ != nullptr) {
    w.avmonState = sim.avmonSystem_->saveState();
    w.avmonTimer = timerOf(*sim.sim_, sim.avmonSystem_->epochTask(),
                           "avmon epoch fold");
  }
  w.facadeRng = sim.rng_.saveState();
  if (const auto* markov = dynamic_cast<const trace::MarkovChurnModel*>(
          unwrapOverlay(sim.trace_.get()))) {
    w.markovCursors = markov->saveCursors();
  }

  {
    std::vector<std::uint64_t*> seqs;
    std::vector<std::int64_t> ats;
    for (std::vector<SlotRecord>& recs : w.wheels) {
      for (SlotRecord& r : recs) {
        seqs.push_back(&r.seq);
        ats.push_back(r.fireAtUs);
      }
    }
    if (haveWake) {
      seqs.push_back(&w.wakeSeq);
      ats.push_back(w.shuffle.channel.scheduledWakeUs);
    }
    if (sim.feed_ != nullptr) {
      seqs.push_back(&w.sealSeq);
      ats.push_back(w.feedState.sealNextFireAtUs);
    }
    for (AttackRecord& rec : w.attacks) {
      if (rec.timer.running == 0) continue;
      seqs.push_back(&rec.timer.seq);
      ats.push_back(rec.timer.fireAtUs);
    }
    if (w.avmonTimer.running != 0) {
      seqs.push_back(&w.avmonTimer.seq);
      ats.push_back(w.avmonTimer.fireAtUs);
    }
    rankSavedEvents(std::move(seqs), ats);
  }

  CheckpointWriter writer(out);
  FileHeader header;
  header.version = kFormatVersion;
  header.fingerprint = configFingerprint(sim.config_);
  header.hosts = sim.nodes_.size();
  header.seed = sim.config_.seed;
  writer.writeHeader(header);

  SectionWriter sec;
  ioSections(w, [&](std::uint32_t tag, Need need, auto&& body) {
    if (need == Need::kAbsent) return;
    sec.clear();
    body(sec);
    writer.writeSection(tag, sec);
  });
  writer.finish();
}

// --- restore ----------------------------------------------------------------

void CheckpointAccess::restore(AvmemSimulation& sim, std::istream& in) {
  if (sim.started_ || sim.sim_->pendingEvents() != 0) {
    throw CheckpointUnsupportedError(
        "checkpoint: restore requires a freshly-constructed system");
  }

  CheckpointReader reader(in);
  const FileHeader& header = reader.header();
  if (header.fingerprint != configFingerprint(sim.config_)) {
    throw CheckpointConfigError(
        "checkpoint: config fingerprint mismatch — the checkpoint was "
        "taken under a different configuration (thread count and dispatch "
        "mode aside, every knob must match)");
  }
  const std::size_t n = sim.nodes_.size();
  if (header.hosts != n) {
    throw CheckpointConfigError("checkpoint: population mismatch");
  }

  // --- parse every section into staging state (skipping unknown tags) ---

  World w(sim);
  w.nodes.resize(n);
  std::vector<std::uint32_t> seen;
  std::uint32_t id = 0;
  std::vector<std::uint8_t> payload;
  while (reader.nextSection(id, payload)) {
    ioSections(w, [&](std::uint32_t tag, Need need, auto&& body) {
      if (tag != id) return;
      if (need == Need::kAbsent) {
        throw CheckpointFormatError("checkpoint: " + tagName(tag) +
                                    " section present but this world has "
                                    "no such state owner");
      }
      Cursor c(payload);
      body(c);
      if (!c.atEnd()) {
        throw CheckpointFormatError(
            "checkpoint: " + tagName(tag) + " section has " +
            std::to_string(c.remaining()) + " unread payload bytes");
      }
      seen.push_back(tag);
    });
  }
  ioSections(w, [&](std::uint32_t tag, Need need, auto&&) {
    if (need == Need::kRequired &&
        std::find(seen.begin(), seen.end(), tag) == seen.end()) {
      throw CheckpointFormatError("checkpoint: missing the " + tagName(tag) +
                                  " section");
    }
  });

  // --- install state (no events scheduled yet) ---

  sim.started_ = true;
  sim.sim_->restoreClock(sim::SimTime::micros(w.nowUs), w.executed);

  for (std::size_t i = 0; i < n; ++i) {
    NodeRecord& r = w.nodes[i];
    sim.nodes_[i].restoreState(r.selfAv, r.hs.release(), r.vs.release(),
                               r.stats);
  }

  sim.engine_->prepareResume();
  sim.engine_->restoreStats(w.engine);
  sim.shuffle_->restoreState(std::move(w.shuffle));
  const std::int64_t sealAt = w.feedState.sealNextFireAtUs;
  if (sim.feed_ != nullptr) sim.feed_->restoreState(std::move(w.feedState));
  sim.network_->restoreState(w.network);
  sim.rng_ = sim::Rng::fromState(w.facadeRng);
  if (sim.fault_ != nullptr) {
    for (const AttackRecord& rec : w.attacks) {
      w.faultState.attackSweepsDone.push_back(rec.sweepsDone);
    }
    sim.fault_->restoreState(w.faultState);
  }
  if (sim.avmonSystem_ != nullptr) {
    sim.avmonSystem_->restoreState(w.avmonState);
  }
  if (auto* markov = dynamic_cast<trace::MarkovChurnModel*>(
          unwrapOverlay(sim.trace_.get()));
      markov != nullptr &&
      std::find(seen.begin(), seen.end(), kSecMarkov) != seen.end()) {
    markov->restoreCursors(w.markovCursors);
  }

  // --- re-arm every saved event in (fireAt, saved tie-break seq) order ---
  //
  // The fresh queue assigns seqs 0..k-1 in arming order, so sorting by the
  // saved keys reproduces every same-instant tie outcome; events scheduled
  // after the restore sort behind all of these, exactly as events
  // scheduled after time T sorted behind the then-pending set in the
  // straight-through run.

  std::vector<ArmRequest> arms;
  auto armWheel = [&](sim::ShardedScheduler& wheel,
                      const std::vector<SlotRecord>& recs, const char* name) {
    if (recs.size() != wheel.activeShardCount()) {
      throw CheckpointFormatError(
          std::string("checkpoint: ") + name +
          " wheel armed-slot count does not match the rebuilt wheel "
          "(slot assignment failed to reproduce)");
    }
    for (const SlotRecord& rec : recs) {
      if (rec.slot >= wheel.shardCount() ||
          wheel.slotTask(rec.slot) == nullptr) {
        throw CheckpointFormatError(
            std::string("checkpoint: ") + name +
            " wheel slot assignment mismatch");
      }
      arms.push_back({rec.fireAtUs, rec.seq,
                      [&wheel, slot = rec.slot, at = rec.fireAtUs] {
                        wheel.armSlot(slot, sim::SimTime::micros(at));
                      }});
    }
  };
  armWheel(sim.engine_->discoveryWheel(), w.wheels[0], "discovery");
  armWheel(sim.engine_->refreshWheel(), w.wheels[1], "refresh");
  armWheel(sim.shuffle_->wheel(), w.wheels[2], "shuffle");

  net::ShuffleChannel& channel = sim.shuffle_->channel();
  if (channel.scheduledWakeMicros() != net::ShuffleChannel::kNoWakeSaved) {
    arms.push_back({channel.scheduledWakeMicros(), w.wakeSeq,
                    [&channel] { channel.armWake(); }});
  }
  if (sim.feed_ != nullptr) {
    arms.push_back(
        {sealAt, w.sealSeq, [&sim, sealAt] {
           sim.feed_->armSeal(*sim.sim_,
                              sim.config_.protocol.discoveryPeriod,
                              sim::SimTime::micros(sealAt));
         }});
  }
  for (std::size_t i = 0; i < w.attacks.size(); ++i) {
    const TimerRecord& t = w.attacks[i].timer;
    if (t.running == 0) continue;  // stage window already closed
    arms.push_back(
        {t.fireAtUs, t.seq, [&sim, i, at = t.fireAtUs] {
           sim.attackTasks_[i]->start(
               *sim.sim_, sim::SimTime::micros(at),
               sim::SimDuration::micros(
                   sim.config_.faultPlan.attacks[i].periodUs),
               [simPtr = &sim, i] { simPtr->fireAttackStage(i); });
         }});
  }

  if (w.avmonTimer.running != 0) {
    arms.push_back({w.avmonTimer.fireAtUs, w.avmonTimer.seq,
                    [&sim, at = w.avmonTimer.fireAtUs] {
                      // start() recomputes the next boundary from the
                      // restored fold cursor; it must land exactly where
                      // the saved timer was armed.
                      sim.avmonSystem_->start();
                      const sim::PeriodicTask& task =
                          sim.avmonSystem_->epochTask();
                      if (!task.running() ||
                          task.nextFireAt().toMicros() != at) {
                        throw CheckpointFormatError(
                            "checkpoint avmon: epoch-task re-arm landed at "
                            "a different instant than the saved timer");
                      }
                    }});
  }

  std::sort(arms.begin(), arms.end(),
            [](const ArmRequest& a, const ArmRequest& b) {
              return a.atUs != b.atUs ? a.atUs < b.atUs
                                      : a.savedSeq < b.savedSeq;
            });
  for (const ArmRequest& req : arms) req.arm();
}

}  // namespace avmem::snapshot

// --- facade entry points ----------------------------------------------------

namespace avmem::core {

void AvmemSimulation::saveCheckpoint(std::ostream& out) const {
  snapshot::CheckpointAccess::save(*this, out);
}

void AvmemSimulation::saveCheckpoint(const std::string& path) const {
  // Write a sibling temp file and rename it over `path` only once it is
  // complete and closed: a refused save, a failed write or a crash leaves
  // the previous artifact intact.
  const std::string tmp = path + ".tmp";
  try {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw snapshot::CheckpointIoError(
          "cannot open checkpoint for writing: " + tmp);
    }
    saveCheckpoint(static_cast<std::ostream&>(out));
    out.close();
    if (!out) {
      throw snapshot::CheckpointIoError("checkpoint close failed: " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
      throw snapshot::CheckpointIoError("cannot rename " + tmp + " to " +
                                        path);
    }
  } catch (...) {
    std::remove(tmp.c_str());
    throw;
  }
}

void AvmemSimulation::restoreCheckpoint(std::istream& in) {
  snapshot::CheckpointAccess::restore(*this, in);
}

void AvmemSimulation::restoreCheckpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw snapshot::CheckpointIoError("cannot open checkpoint: " + path);
  }
  restoreCheckpoint(static_cast<std::istream&>(in));
}

}  // namespace avmem::core
