// l2l::cache unit suite: digest stability goldens, the journal CRC
// against its check value and a bytewise oracle, hit/miss/evict
// accounting, the LRU bound, the persistent tier round-trip with
// corrupt-entry quarantine, the switch (which the service's in-run dedup
// does not read), and byte-identical stats export at any L2L_THREADS.
// The digest goldens pin the hash across refactors: the persistent
// tier's file names ARE digests, so an accidental hash change would
// silently orphan every on-disk entry.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "cache/digest.hpp"
#include "cache/wire.hpp"
#include "mooc/grading_service.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

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

TEST(DigestTest, WordAppendsMatchTheirLittleEndianBytes) {
  // Hasher::u64 absorbs a whole word when no partial chunk is pending;
  // the digest must equal feeding the same eight bytes through bytes(),
  // aligned or not.
  util::Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    cache::Hasher words, raw;
    for (int k = 0; k < 12; ++k) {
      if (rng.next_below(3) == 0) {
        const std::string s(rng.next_below(11), static_cast<char>('a' + k));
        words.str(s);
        raw.u64(s.size()).bytes(s.data(), s.size());
        continue;
      }
      const std::uint64_t v = rng.next_u64();
      unsigned char le[8];
      for (int i = 0; i < 8; ++i)
        le[i] = static_cast<unsigned char>(v >> (8 * i));
      words.u64(v);
      raw.bytes(le, 4).bytes(le + 4, 4);
    }
    EXPECT_EQ(words.finish(), raw.finish()) << "trial " << trial;
  }
}

// ---- crc32 ---------------------------------------------------------------

/// The byte-at-a-time table CRC that slicing-by-8 replaced, kept as the
/// oracle.
std::uint32_t bytewise_crc32(std::string_view data, std::uint32_t seed = 0) {
  static const auto kTable = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xffffffffu;
  for (const char ch : data)
    c = kTable[(c ^ static_cast<unsigned char>(ch)) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

std::string random_bytes(util::Rng& rng, std::size_t n) {
  std::string out(n, '\0');
  for (auto& c : out) c = static_cast<char>(rng.next_below(256));
  return out;
}

TEST(Crc32Test, StandardCheckValue) {
  EXPECT_EQ(cache::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(cache::crc32(""), 0u);
  EXPECT_EQ(cache::crc32("", 0x12345678u), 0x12345678u);
}

TEST(Crc32Test, SeedChainsOverConcatenation) {
  util::Rng rng(7);
  const std::string buf = random_bytes(rng, 3000);
  for (const std::size_t cut : {0, 1, 7, 8, 9, 15, 16, 17, 100, 2999, 3000}) {
    const std::string_view a(buf.data(), cut);
    const std::string_view b(buf.data() + cut, buf.size() - cut);
    EXPECT_EQ(cache::crc32(b, cache::crc32(a)), cache::crc32(buf))
        << "cut " << cut;
  }
}

TEST(Crc32Test, MatchesBytewiseOracle) {
  util::Rng rng(11);
  // Every length 0..1024 at every alignment 0..7 of the 8-byte loads.
  const std::string buf = random_bytes(rng, 1024 + 8);
  for (std::size_t off = 0; off < 8; ++off)
    for (std::size_t len = 0; len <= 1024; ++len) {
      const std::string_view v(buf.data() + off, len);
      ASSERT_EQ(cache::crc32(v), bytewise_crc32(v))
          << "offset " << off << " length " << len;
    }
  // Seeded buffers up to 64 KB, with and without a chained seed.
  for (const std::size_t n : {4093u, 8192u, 40001u, 65535u, 65536u}) {
    const std::string big = random_bytes(rng, n);
    const auto seed = static_cast<std::uint32_t>(rng.next_u64());
    EXPECT_EQ(cache::crc32(big), bytewise_crc32(big)) << n;
    EXPECT_EQ(cache::crc32(big, seed), bytewise_crc32(big, seed)) << n;
  }
}

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

// ---- field lists ----------------------------------------------------------

struct WireSample {
  std::string name;
  int count = 0;
  std::uint64_t id = 0;
  double weight = 0.0;
  bool flag = false;
  util::Severity severity = util::Severity::kError;
  std::uint8_t lane = 0;
  std::vector<util::Diagnostic> diags;
  util::Status status;
  std::vector<int> values;
};

constexpr auto kSampleFields = [](auto& io, auto& r) {
  io.str(r.name);
  io.i64(r.count);
  io.i64(r.id);
  io.f64(r.weight);
  io.boolean(r.flag);
  io.upto(r.severity, util::Severity::kNote);
  io.upto(r.lane, 1);
  io.list(r.diags, cache::wire::diagnostic);
  cache::wire::status(io, r.status);
  io.nested(r.values, [](auto& io, auto& v) {
    io.list(v, [](auto& io, auto& x) { io.i64(x); });
  });
};

WireSample wire_sample() {
  WireSample s;
  s.name = "two\nlines";
  s.count = -7;
  s.id = ~std::uint64_t{0};
  s.weight = 0.1;
  s.flag = true;
  s.severity = util::Severity::kNote;
  s.lane = 1;
  s.diags = {util::make_error(3, 4, "bad"), util::make_error(0, 0, "")};
  s.status = util::Status::parse_error("oops");
  s.values = {1, -2, 3};
  return s;
}

TEST(WireTest, OneFieldListEncodesAndDecodes) {
  const WireSample s = wire_sample();
  const std::string bytes = cache::wire::encode(s, kSampleFields);
  // The same records a hand-written encoder would append.
  std::string want;
  cache::append_record(want, s.name);
  cache::append_i64(want, -7);
  cache::append_i64(want, -1);
  cache::append_f64(want, 0.1);
  cache::append_i64(want, 1);
  cache::append_i64(want, 2);
  cache::append_i64(want, 1);
  cache::append_i64(want, 2);
  for (const auto& d : s.diags) {
    cache::append_i64(want, 0);
    cache::append_i64(want, d.line);
    cache::append_i64(want, d.column);
    cache::append_record(want, d.message);
  }
  cache::append_i64(want, static_cast<int>(util::StatusCode::kParseError));
  cache::append_record(want, "oops");
  cache::append_record(want, "1\n31\n12\n-21\n3");
  EXPECT_EQ(bytes, want);

  WireSample got;
  ASSERT_TRUE(cache::wire::decode(bytes, got, kSampleFields));
  EXPECT_EQ(cache::wire::encode(got, kSampleFields), bytes);
  EXPECT_EQ(got.id, s.id);
  EXPECT_EQ(got.values, s.values);
  EXPECT_EQ(got.diags.size(), 2u);
}

TEST(WireTest, DecodeRefusesEveryOutOfRangeOrTruncatedRecord) {
  const std::string good = cache::wire::encode(wire_sample(), kSampleFields);
  WireSample got;
  for (std::size_t n = 0; n < good.size(); ++n)
    EXPECT_FALSE(cache::wire::decode(good.substr(0, n), got, kSampleFields))
        << "prefix " << n;
  EXPECT_FALSE(cache::wire::decode(good + "0\n", got, kSampleFields));

  // Swap one encoded field for another record.
  auto with = [&](std::size_t field, std::string_view swapped) {
    cache::RecordReader in(good);
    std::string out;
    std::string_view rec;
    for (std::size_t k = 0; in.next(rec); ++k)
      cache::append_record(out, k == field ? swapped : rec);
    return out;
  };
  EXPECT_TRUE(cache::wire::decode(with(4, "0"), got, kSampleFields));
  EXPECT_FALSE(cache::wire::decode(with(4, "2"), got, kSampleFields));  // bool
  EXPECT_FALSE(cache::wire::decode(with(5, "3"), got, kSampleFields));  // enum
  EXPECT_FALSE(cache::wire::decode(with(5, "-1"), got, kSampleFields));
  EXPECT_FALSE(cache::wire::decode(with(6, "2"), got, kSampleFields));  // lane
  EXPECT_FALSE(cache::wire::decode(with(7, "-1"), got, kSampleFields));
  EXPECT_FALSE(cache::wire::decode(with(7, "3"), got, kSampleFields));
  EXPECT_FALSE(cache::wire::decode(with(8, "3"), got, kSampleFields));
  EXPECT_FALSE(cache::wire::decode(with(16, "7"), got, kSampleFields));
  // A nested record must be consumed whole, like the outer one.
  EXPECT_TRUE(cache::wire::decode(with(18, "1\n0"), got, kSampleFields));
  EXPECT_FALSE(
      cache::wire::decode(with(18, "1\n01\n5"), got, kSampleFields));
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

TEST(CacheTest, SwitchOffLeavesTheServicesInRunDedupUnchanged) {
  // The switch is read by Cache alone. A drain without a cache_domain
  // never touches the cache, so turning the switch off must change
  // nothing: the in-run memo is the service's own and replays the same
  // duplicates (lint, degraded and full memos) either way.
  mooc::TraceOptions topt;
  topt.num_students = 600;
  topt.num_courses = 2;
  topt.ticks = 40;
  topt.unique_bodies_per_course = 16;
  util::Rng rng(3);
  const auto trace = mooc::generate_submission_trace(topt, rng);
  mooc::ServiceOptions opt;
  opt.service_rate = 8;
  opt.breaker_threshold = 4;
  opt.breaker_probe_interval = 4;
  opt.storm_begin_tick = 10;
  opt.storm_end_tick = 20;
  opt.storm_transient_rate = 0.95;
  opt.queue.max_retries = 1;
  opt.queue.lint = [](const std::string& body) {
    std::vector<util::Diagnostic> out;
    std::uint32_t sum = 0;
    for (const char c : body) sum += static_cast<unsigned char>(c);
    if (sum % 7 == 0)
      out.push_back(util::make_error(1, 1, "checksum lint tripped"));
    return out;
  };
  const mooc::GradingService service(
      opt, [](const std::string& s, const util::Budget&) {
        return static_cast<double>(s.size() % 101);
      });

  cache::Cache::global().clear();
  const auto on = service.run(trace);
  cache::set_enabled(false);
  const auto off = service.run(trace);
  cache::set_enabled(true);

  EXPECT_GT(on.stats.dedup_hits, 0);
  EXPECT_GT(on.stats.lint_rejected, 0);
  EXPECT_GT(on.stats.degraded, 0);
  EXPECT_EQ(off.stats.dedup_hits, on.stats.dedup_hits);
  EXPECT_TRUE(off.stats == on.stats) << "ServiceStats diverged";
  ASSERT_EQ(off.outcomes.size(), on.outcomes.size());
  for (std::size_t i = 0; i < on.outcomes.size(); ++i)
    ASSERT_TRUE(off.outcomes[i] == on.outcomes[i]) << "outcome " << i;
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
