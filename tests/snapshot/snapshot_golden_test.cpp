// Golden checkpoints: v3 files committed under tests/snapshot/golden/
// pin the on-disk layout. Each one must restore into its (fixed) world
// config and re-save to exactly the committed bytes, so any change to the
// serializer that moves a byte — a reordered field, a widened count, a
// dropped section — fails here instead of silently orphaning every
// checkpoint already on disk.
//
// Together the goldens carry all twelve v3 section tags: an AVMON-backend
// world with the candidate feed and a mid-campaign fault plan (FALT, AVMN,
// FEED, MRKV and the mandatory sections) plus a plain oracle world.
//
// Regenerating (only on an intentional format change, which also bumps
// kFormatVersion): run this suite with AVMEM_WRITE_GOLDEN=<dir>; it writes
// <dir>/<name>.avmem for every world instead of comparing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "fault/fault_plan.hpp"
#include "snapshot/checkpoint.hpp"

#ifndef AVMEM_GOLDEN_DIR
#error "AVMEM_GOLDEN_DIR must name the committed golden checkpoint directory"
#endif

namespace avmem::snapshot {
namespace {

using core::AvmemSimulation;
using core::SimulationConfig;

/// One committed world: its config and how long it warms before saving.
struct GoldenWorld {
  const char* name;
  SimulationConfig config;
  sim::SimDuration warmup;
};

/// 128-host scale world with everything the environment could inject
/// pinned off, so the fingerprint is a function of this file alone.
SimulationConfig baseConfig(std::uint64_t seed) {
  core::Scenario s = core::makeScaleScenario(128, seed);
  s.config.checkpointIn.clear();
  s.config.checkpointOut.clear();
  s.config.faultPlan = {};
  s.config.faultPlanPath.clear();
  s.config.maintenanceThreads = 1;
  s.config.pipelinedDispatch = false;
  // A fast shuffle keeps legs in flight at the save instant (CHAN).
  s.config.shuffle.period = sim::SimDuration::seconds(20);
  return s.config;
}

std::vector<GoldenWorld> goldenWorlds() {
  std::vector<GoldenWorld> worlds;

  // AVMON overlay + feed + an attack campaign whose stage window is open
  // at the save instant: FALT carries a running attacker timer and AVMN
  // the materialized monitor cells.
  SimulationConfig avmon = baseConfig(11);
  avmon.backend = core::AvailabilityBackend::kAvmon;
  avmon.avmon.hashAlgorithm = hashing::PairHashAlgorithm::kFast64;
  avmon.avmon.hashSeed = 0x5EED0A;
  avmon.candidateFeed.enabled = true;
  avmon.faultPlan = fault::parseFaultPlanText(
      "seed = 7\n"
      "regions = 4\n"
      "[loss]\n"
      "from_h = 0.1\nto_h = 0.5\n"
      "drop = 0.2\nduplicate = 0.05\ndelay = 0.1\ndelay_max_ms = 100\n"
      "[attack]\n"
      "from_h = 0.1\nto_h = 0.5\nperiod_s = 90\nkind = flooding\n");
  worlds.push_back({"avmon_fault_feed_128", avmon,
                    sim::SimDuration::minutes(19)});

  // The default scale shape: oracle availability, feed on, no campaign.
  SimulationConfig oracle = baseConfig(12);
  oracle.backend = core::AvailabilityBackend::kOracle;
  oracle.candidateFeed.enabled = true;
  worlds.push_back({"oracle_128", oracle, sim::SimDuration::seconds(1409)});
  return worlds;
}

std::string goldenPath(const std::string& dir, const char* name) {
  return dir + "/" + name + ".avmem";
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden checkpoint " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

/// Section tags in file order (header: 36 bytes; frame: id, len, crc).
std::vector<std::uint32_t> sectionTags(const std::string& bytes) {
  std::vector<std::uint32_t> tags;
  std::size_t pos = 8 + 4 + 8 + 8 + 8;
  while (pos + 16 <= bytes.size()) {
    std::uint32_t id = 0;
    std::uint64_t len = 0;
    std::memcpy(&id, bytes.data() + pos, 4);
    std::memcpy(&len, bytes.data() + pos + 4, 8);
    tags.push_back(id);
    pos += 16 + static_cast<std::size_t>(len);
  }
  return tags;
}

TEST(SnapshotGoldenTest, RestoreThenResaveIsByteIdentical) {
  if (const char* out = std::getenv("AVMEM_WRITE_GOLDEN")) {
    for (const GoldenWorld& w : goldenWorlds()) {
      AvmemSimulation donor(w.config);
      donor.warmup(w.warmup);
      donor.saveCheckpoint(goldenPath(out, w.name));
    }
    GTEST_SKIP() << "wrote golden checkpoints to " << out;
  }
  for (const GoldenWorld& w : goldenWorlds()) {
    SCOPED_TRACE(w.name);
    const std::string golden = readFile(goldenPath(AVMEM_GOLDEN_DIR, w.name));
    ASSERT_FALSE(golden.empty());

    AvmemSimulation restored(w.config);
    std::istringstream in(golden, std::ios::binary);
    restored.restoreCheckpoint(in);
    std::ostringstream resaved(std::ios::binary);
    restored.saveCheckpoint(resaved);
    const std::string again = resaved.str();

    ASSERT_EQ(again.size(), golden.size());
    if (again != golden) {
      std::size_t at = 0;
      while (again[at] == golden[at]) ++at;
      FAIL() << "re-saved bytes first differ at offset " << at;
    }
  }
}

TEST(SnapshotGoldenTest, GoldensCoverEveryV3Section) {
  std::set<std::uint32_t> seen;
  for (const GoldenWorld& w : goldenWorlds()) {
    for (const std::uint32_t tag :
         sectionTags(readFile(goldenPath(AVMEM_GOLDEN_DIR, w.name)))) {
      seen.insert(tag);
    }
  }
  for (const char* tag : {"SIMU", "NODS", "ENGS", "WHLS", "SHFV", "CHAN",
                          "FEED", "NETW", "FALT", "AVMN", "SRNG", "MRKV"}) {
    EXPECT_EQ(seen.count(fourcc(tag[0], tag[1], tag[2], tag[3])), 1u)
        << "no golden checkpoint carries section " << tag;
  }
}

}  // namespace
}  // namespace avmem::snapshot
