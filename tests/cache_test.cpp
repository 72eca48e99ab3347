// l2l::cache unit suite: digest stability goldens, hit/miss/evict
// accounting, the LRU bound, the persistent tier round-trip with
// corrupt-entry quarantine, the kill switch, and byte-identical stats
// export at any L2L_THREADS. The digest goldens pin the hash across
// refactors: the persistent tier's file names ARE digests, so an
// accidental hash change would silently orphan every on-disk entry.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "mooc/grading_service.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace l2l {
namespace {

namespace fs = std::filesystem;

/// A scratch directory under the system temp root, wiped on entry and
/// exit. Each test names its own so concurrent ctest jobs never collide.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

cache::CacheKey make_key(const std::string& engine, const std::string& input,
                         std::uint64_t config_salt = 0) {
  cache::Hasher h;
  h.u64(config_salt);
  return {engine, cache::digest_bytes(input), h.finish()};
}

// ---- digest -------------------------------------------------------------

TEST(DigestTest, GoldenValuesArePinned) {
  // Regenerating these is a format break: bump the facade format versions
  // and say so in DESIGN.md before touching them.
  EXPECT_EQ(cache::digest_bytes("").hex(), "a47a67fd25a30513d603a4d010e5e2a0");
  EXPECT_EQ(cache::digest_bytes("hello world\n").hex(),
            "55d8e84207145071acca02e0bc48a0f2");
  EXPECT_EQ(cache::digest_bytes("p cnf 2 2\n1 2 0\n-1 2 0\n").hex(),
            "1fc948e033fff370d3b0cfceb5ad8f1d");
  cache::Hasher h;
  h.str("sat").u64(1).boolean(true).f64(0.5);
  EXPECT_EQ(h.finish().hex(), "fc947dcaf26b0a93c8f1040c1267c0ea");
}

TEST(DigestTest, TypedFramingPreventsConcatenationCollisions) {
  cache::Hasher ab_c;
  ab_c.str("ab").str("c");
  cache::Hasher a_bc;
  a_bc.str("a").str("bc");
  EXPECT_NE(ab_c.finish(), a_bc.finish());

  cache::Hasher with_empty;
  with_empty.str("x").str("");
  cache::Hasher without;
  without.str("x");
  EXPECT_NE(with_empty.finish(), without.finish());
}

TEST(DigestTest, SingleByteChangesTheDigest) {
  const std::string base(1000, 'a');
  std::string flipped = base;
  flipped[500] = 'b';
  EXPECT_NE(cache::digest_bytes(base), cache::digest_bytes(flipped));
  EXPECT_EQ(cache::digest_bytes(base), cache::digest_bytes(std::string(base)));
}

// ---- serialization ------------------------------------------------------

TEST(RecordTest, RoundTripsMixedRecords) {
  std::string bytes;
  cache::append_record(bytes, "first\nrecord with newline");
  cache::append_i64(bytes, -42);
  cache::append_f64(bytes, 0.1);  // not exactly representable: bit test
  cache::append_record(bytes, "");

  cache::RecordReader in(bytes);
  std::string s;
  std::int64_t v = 0;
  double d = 0;
  ASSERT_TRUE(in.next_string(s));
  EXPECT_EQ(s, "first\nrecord with newline");
  ASSERT_TRUE(in.next_i64(v));
  EXPECT_EQ(v, -42);
  ASSERT_TRUE(in.next_f64(d));
  EXPECT_EQ(d, 0.1);
  ASSERT_TRUE(in.next_string(s));
  EXPECT_EQ(s, "");
  EXPECT_TRUE(in.complete());
}

TEST(RecordTest, TruncatedAndMalformedInputFailsCleanly) {
  std::string bytes;
  cache::append_record(bytes, "payload");
  cache::RecordReader truncated(
      std::string_view(bytes).substr(0, bytes.size() - 3));
  std::string s;
  EXPECT_FALSE(truncated.next_string(s));
  EXPECT_TRUE(truncated.failed());

  cache::RecordReader garbage("banana\nsplit");
  EXPECT_FALSE(garbage.next_string(s));
  EXPECT_FALSE(garbage.complete());
}

// ---- in-memory tier -----------------------------------------------------

TEST(CacheTest, HitMissAndStats) {
  cache::Cache c;
  const auto key = make_key("test", "input-a");
  EXPECT_FALSE(c.lookup(key).has_value());
  c.insert(key, "value-a");
  const auto hit = c.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "value-a");
  // Same input, different config: a different entry.
  EXPECT_FALSE(c.lookup(make_key("test", "input-a", 7)).has_value());
  // Same digests, different engine: a different entry.
  EXPECT_FALSE(c.lookup(make_key("other", "input-a")).has_value());

  const auto st = c.stats();
  EXPECT_EQ(st.hits, 1);
  EXPECT_EQ(st.misses, 3);
  EXPECT_EQ(st.inserts, 1);
  EXPECT_EQ(st.entries, 1);
  EXPECT_EQ(st.bytes, 7);  // strlen("value-a")
}

TEST(CacheTest, LruEvictionRespectsTheBound) {
  cache::CacheOptions opt;
  opt.max_entries_per_shard = 2;
  cache::Cache c(opt);
  // 64 distinct keys spread over 16 shards, bound 2 each: at most 32
  // entries survive and evictions happened.
  for (int i = 0; i < 64; ++i)
    c.insert(make_key("test", "input-" + std::to_string(i)),
             "v" + std::to_string(i));
  const auto st = c.stats();
  EXPECT_EQ(st.inserts, 64);
  EXPECT_LE(st.entries, 32);
  EXPECT_GT(st.evictions, 0);
  EXPECT_EQ(st.entries + st.evictions, 64);
}

TEST(CacheTest, ByteBoundEvictsOldEntries) {
  cache::CacheOptions opt;
  opt.max_bytes_per_shard = 64;
  cache::Cache c(opt);
  const std::string big(48, 'x');
  // Two 48-byte values that land wherever they land: no shard may hold
  // both plus a third, so total bytes stays under 16 shards * 64.
  for (int i = 0; i < 32; ++i)
    c.insert(make_key("test", "k" + std::to_string(i)), big);
  EXPECT_LE(c.stats().bytes, 16 * 64);
}

TEST(CacheTest, KillSwitchMakesLookupMissAndInsertNoOp) {
  cache::Cache c;
  const auto key = make_key("test", "ks");
  c.insert(key, "v");
  ASSERT_TRUE(c.lookup(key).has_value());
  cache::set_enabled(false);
  EXPECT_FALSE(c.lookup(key).has_value());
  c.insert(make_key("test", "ks2"), "w");
  cache::set_enabled(true);
  EXPECT_FALSE(c.lookup(make_key("test", "ks2")).has_value());
  EXPECT_TRUE(c.lookup(key).has_value());
}

// ---- persistent tier ----------------------------------------------------

TEST(CacheDiskTest, RoundTripsThroughTheDiskTier) {
  ScratchDir dir("l2l-cache-test-roundtrip");
  const auto key = make_key("test", "disk-entry");
  {
    cache::CacheOptions opt;
    opt.disk_dir = dir.path;
    cache::Cache writer(opt);
    writer.insert(key, "persisted-value");
  }
  // A different cache instance (fresh memory) finds the entry on disk.
  cache::CacheOptions opt;
  opt.disk_dir = dir.path;
  cache::Cache reader(opt);
  const auto hit = reader.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, "persisted-value");
  // And the disk hit was promoted: clear the dir, memory still serves it.
  fs::remove_all(dir.path);
  EXPECT_TRUE(reader.lookup(key).has_value());
}

TEST(CacheDiskTest, CorruptEntryIsQuarantinedNotBelieved) {
  ScratchDir dir("l2l-cache-test-quarantine");
  const auto key = make_key("test", "to-corrupt");
  cache::CacheOptions opt;
  opt.disk_dir = dir.path;
  {
    cache::Cache writer(opt);
    writer.insert(key, "honest bytes");
  }
  // Flip payload bytes behind the checksum's back.
  const std::string path = dir.path + "/" + key.file_stem() + ".l2lc";
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-4, std::ios::end);
    f << "EVIL";
  }
  cache::Cache reader(opt);
  EXPECT_FALSE(reader.lookup(key).has_value());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".quarantine"));
  // A truncated entry degrades the same way.
  const auto key2 = make_key("test", "to-truncate");
  {
    cache::Cache writer(opt);
    writer.insert(key2, std::string(256, 'z'));
  }
  const std::string path2 = dir.path + "/" + key2.file_stem() + ".l2lc";
  fs::resize_file(path2, 20);
  EXPECT_FALSE(reader.lookup(key2).has_value());
  EXPECT_TRUE(fs::exists(path2 + ".quarantine"));
}

// ---- deterministic stats export -----------------------------------------

std::string counters_only_export() {
  std::string out;
  for (const auto& [name, v] : obs::Registry::global().snapshot().counters)
    out += "counter " + name + " " + std::to_string(v) + "\n";
  return out;
}

TEST(CacheStatsTest, QueueDrainExportIsThreadCountInvariant) {
  // The grading service issues its cache traffic from sequential program
  // points, so a cold-then-warm run pair must export byte-identical
  // cache.* and mooc.service.* counters at 1, 2, and 8 threads. Five
  // bodies, four uploads each, one upload per tick: duplicates land in
  // later ticks, where the service's fold-time memo replays them.
  obs::set_enabled(true);
  mooc::SubmissionTrace trace;
  trace.num_courses = 1;
  for (int b = 0; b < 5; ++b) trace.bodies.push_back("s" + std::to_string(b));
  for (std::uint32_t k = 0; k < 20; ++k)
    trace.events.push_back({.body = k % 5, .arrival_tick = k,
                            .deadline_tick = k + 1});
  trace.ticks = 20;
  mooc::ServiceOptions opt;
  opt.queue.cache_domain = "cache-test.service";
  const mooc::GradingService service(
      opt, [](const std::string& s, const util::Budget&) {
        return static_cast<double>(s.size());
      });

  std::vector<std::string> exports;
  for (const int t : {1, 2, 8}) {
    util::set_num_threads(t);
    obs::Registry::global().reset();
    cache::Cache::global().clear();
    const auto cold = service.run(trace);
    const auto warm = service.run(trace);
    EXPECT_EQ(cold.stats.cache_hits, 0) << t << " threads";
    EXPECT_EQ(warm.stats.cache_hits, 5) << t << " threads";
    exports.push_back(counters_only_export());
  }
  util::set_num_threads(0);
  cache::Cache::global().clear();
  obs::Registry::global().reset();
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_NE(exports[0].find("counter mooc.service.cache_hits 5"),
            std::string::npos)
      << exports[0];
  EXPECT_NE(exports[0].find("counter cache.hit"), std::string::npos)
      << exports[0];
  EXPECT_EQ(exports[0], exports[1]) << "threads 1 vs 2";
  EXPECT_EQ(exports[0], exports[2]) << "threads 1 vs 8";
}

}  // namespace
}  // namespace l2l
