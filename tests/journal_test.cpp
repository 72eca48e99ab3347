// Crash-recovery property tests for the grading-service journal
// (mooc/journal.hpp). The central property, pinned from several
// directions: a service killed at ANY point -- any tick boundary, any
// byte offset of a torn write -- and restarted with --recover reaches a
// final state byte-identical to the uninterrupted run's: same outcomes,
// same stats, same deterministic obs counters (modulo the journal.*
// family, which legitimately describes THIS process's journal I/O), at
// any L2L_THREADS.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "cache/cache.hpp"
#include "mooc/cohort.hpp"
#include "mooc/grading_service.hpp"
#include "mooc/journal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace l2l {
namespace {

std::atomic<std::int64_t> g_grade_calls{0};

double counting_grade(const std::string& s, const util::Budget&) {
  g_grade_calls.fetch_add(1, std::memory_order_relaxed);
  return static_cast<double>(s.size() % 101);
}

/// A compact semester that walks every service path the journal records:
/// overload (quota rejects + sheds), a fault storm (breaker trips,
/// degraded service, probes, recoveries), duplicate-heavy uploads
/// (dedup memo replays), and a lint rule (lint rejections + memo).
mooc::SubmissionTrace make_trace(int students = 1500, int courses = 2,
                                 std::uint32_t ticks = 80,
                                 std::uint64_t seed = 5) {
  mooc::TraceOptions topt;
  topt.num_students = students;
  topt.num_courses = courses;
  topt.ticks = ticks;
  util::Rng rng(seed);
  return mooc::generate_submission_trace(topt, rng);
}

mooc::ServiceOptions make_options() {
  mooc::ServiceOptions sopt;
  sopt.queue_cap = 48;
  sopt.admit_quota = 32;
  sopt.service_rate = 8;
  sopt.breaker_threshold = 4;
  sopt.breaker_probe_interval = 4;
  sopt.storm_begin_tick = 20;
  sopt.storm_end_tick = 40;
  sopt.storm_transient_rate = 0.95;
  sopt.storm_stall_rate = 0.3;
  sopt.queue.max_retries = 1;
  // A pure-in-the-bytes lint rule with both verdicts represented: the
  // replay path re-runs lint and cross-checks it against the journal.
  sopt.queue.lint = [](const std::string& body) {
    std::vector<util::Diagnostic> out;
    std::uint32_t sum = 0;
    for (const char c : body) sum += static_cast<unsigned char>(c);
    if (sum % 7 == 0)
      out.push_back(util::make_error(1, 1, "checksum lint tripped"));
    return out;
  };
  return sopt;
}

/// One service process: clean registry/tracer, cold in-memory cache.
mooc::ServiceResult run_service(const mooc::SubmissionTrace& trace,
                                const mooc::ServiceOptions& sopt,
                                const mooc::RunRequest& req,
                                util::Status& status) {
  obs::Registry::global().reset();
  obs::Tracer::global().reset();
  cache::Cache::global().clear();
  const mooc::GradingService service(sopt, counting_grade);
  return service.run(trace, req, status);
}

/// Counter slice of the export, minus the journal.* family (the one
/// metric family that legitimately differs between an uninterrupted run
/// and a crash+recovery pair).
std::string counters_sans_journal() {
  std::string out;
  for (const auto& [name, v] : obs::Registry::global().snapshot().counters)
    if (name.rfind("journal.", 0) != 0)
      out += "counter " + name + " " + std::to_string(v) + "\n";
  return out;
}

void expect_same_result(const mooc::ServiceResult& got,
                        const mooc::ServiceResult& want,
                        const std::string& label) {
  EXPECT_TRUE(got.stats == want.stats) << label << ": stats diverged";
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size()) << label;
  for (std::size_t i = 0; i < want.outcomes.size(); ++i)
    ASSERT_TRUE(got.outcomes[i] == want.outcomes[i])
        << label << ": outcome " << i << " diverged";
}

// Per process: ctest runs each case as its own process, and the kill
// sweeps of two cases name the same ticks.
std::string temp_journal(const std::string& name) {
  return ::testing::TempDir() + "l2l_journal_test_" +
         std::to_string(::getpid()) + "_" + name + ".l2lj";
}

void remove_journal(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);
  std::filesystem::remove(path + ".quarantine", ec);
}

class JournalTest : public ::testing::Test {
 protected:
  void TearDown() override {
    util::set_num_threads(0);
    obs::Registry::global().reset();
    obs::Tracer::global().reset();
    cache::Cache::global().clear();
  }
};

TEST_F(JournalTest, CleanRunRoundTrip) {
  const auto trace = make_trace();
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_TRUE(plain.accounting_ok());
  // The scenario genuinely exercises what the journal must record.
  EXPECT_GT(plain.stats.shed, 0);
  EXPECT_GT(plain.stats.rejected_quota, 0);
  EXPECT_GT(plain.stats.breaker_trips, 0);
  EXPECT_GT(plain.stats.dedup_hits, 0);
  EXPECT_GT(plain.stats.lint_rejected, 0);

  const std::string path = temp_journal("clean");
  remove_journal(path);
  mooc::RunRequest req;
  req.journal_path = path;
  const auto journaled = run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_result(journaled, plain, "journaled vs plain");

  const auto scan = mooc::scan_journal(path);
  ASSERT_TRUE(scan.status.ok()) << scan.status.to_string();
  EXPECT_TRUE(scan.found);
  EXPECT_TRUE(scan.run_complete);
  EXPECT_EQ(scan.torn_bytes, 0);
  EXPECT_EQ(static_cast<std::int64_t>(scan.ticks.size()),
            plain.stats.ticks);
  EXPECT_EQ(scan.header.num_events, trace.events.size());
  remove_journal(path);
}

TEST_F(JournalTest, FullReplayInvokesNoGrading) {
  const auto trace = make_trace();
  const auto sopt = make_options();
  const std::string path = temp_journal("full_replay");
  remove_journal(path);
  util::Status st;
  mooc::RunRequest req;
  req.journal_path = path;
  const auto original = run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();

  g_grade_calls.store(0);
  req.recover = true;
  const auto replayed = run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_EQ(g_grade_calls.load(), 0)
      << "a full replay must substitute journaled outcomes, not regrade";
  expect_same_result(replayed, original, "replayed vs original");
  remove_journal(path);
}

/// The heart of the tentpole: kill before tick k, recover, and the final
/// report AND the deterministic obs counters match the uninterrupted
/// run's. The tier1 sweep samples k; the soak sweep (below) takes every
/// tick.
void kill_recover_sweep(const std::vector<std::int64_t>& kill_ticks) {
  const auto trace = make_trace();
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());
  const std::string want_counters = counters_sans_journal();
  ASSERT_FALSE(want_counters.empty());

  for (const std::int64_t k : kill_ticks) {
    const std::string path =
        temp_journal("kill_" + std::to_string(k));
    remove_journal(path);
    mooc::RunRequest crash;
    crash.journal_path = path;
    crash.halt_after_ticks = k;
    const auto halted = run_service(trace, sopt, crash, st);
    ASSERT_TRUE(st.ok()) << "k=" << k << ": " << st.to_string();
    EXPECT_EQ(halted.halted, k < plain.stats.ticks) << "k=" << k;

    mooc::RunRequest recover;
    recover.journal_path = path;
    recover.recover = true;
    const auto recovered = run_service(trace, sopt, recover, st);
    ASSERT_TRUE(st.ok()) << "k=" << k << ": " << st.to_string();
    expect_same_result(recovered, plain, "k=" + std::to_string(k));
    EXPECT_EQ(counters_sans_journal(), want_counters)
        << "obs counters diverged after recovery at k=" << k;
    remove_journal(path);
  }
}

TEST_F(JournalTest, KillAtSampledTicksRecoversExactly) {
  kill_recover_sweep({0, 1, 5, 17, 21, 33, 39, 59, 1000});
}

// The exhaustive sweep -- every tick of the semester. Heavy, so it runs
// only under the soak ctest row (tests/CMakeLists.txt sets the env var).
TEST_F(JournalTest, FullKillSweep) {
  if (std::getenv("L2L_FULL_KILL_SWEEP") == nullptr)
    GTEST_SKIP() << "set L2L_FULL_KILL_SWEEP=1 (soak tier) to run";
  const auto trace = make_trace();
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());
  std::vector<std::int64_t> every;
  for (std::int64_t k = 0; k <= plain.stats.ticks; ++k) every.push_back(k);
  kill_recover_sweep(every);
}

TEST_F(JournalTest, ByteTruncationNeverCrashesAndRecovers) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());

  const std::string path = temp_journal("trunc_src");
  remove_journal(path);
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok());
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    bytes = ss.str();
  }
  ASSERT_GT(bytes.size(), 1000u);

  const std::string cut = temp_journal("trunc_cut");
  for (std::size_t len = 0; len <= bytes.size(); len += 311) {
    remove_journal(cut);
    {
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(len));
    }
    const auto scan = mooc::scan_journal(cut);
    ASSERT_TRUE(scan.status.ok()) << "len=" << len;
    EXPECT_EQ(scan.valid_bytes + scan.torn_bytes,
              static_cast<std::int64_t>(len))
        << "len=" << len;

    mooc::RunRequest recover;
    recover.journal_path = cut;
    recover.recover = true;
    const auto recovered = run_service(trace, sopt, recover, st);
    ASSERT_TRUE(st.ok()) << "len=" << len << ": " << st.to_string();
    expect_same_result(recovered, plain, "len=" + std::to_string(len));
    remove_journal(cut);
  }
  remove_journal(path);
}

TEST_F(JournalTest, CorruptMidFileByteIsTruncatedAndRecovered) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());

  const std::string path = temp_journal("flip");
  remove_journal(path);
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok());
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(f.tellg());
    f.seekp(size / 2);
    char c = 0;
    f.seekg(size / 2);
    f.read(&c, 1);
    c = static_cast<char>(c ^ 0x5a);
    f.seekp(size / 2);
    f.write(&c, 1);
  }
  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  const auto recovered = run_service(trace, sopt, recover, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_result(recovered, plain, "mid-file corruption");
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  remove_journal(path);
}

TEST_F(JournalTest, GarbageTailIsQuarantinedNotTrusted) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());

  const std::string path = temp_journal("garbage_tail");
  remove_journal(path);
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "\x07garbage past the run-end frame\xff\xfe";
  }
  const auto scan = mooc::scan_journal(path);
  ASSERT_TRUE(scan.status.ok());
  EXPECT_TRUE(scan.run_complete);
  EXPECT_GT(scan.torn_bytes, 0);

  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  const auto recovered = run_service(trace, sopt, recover, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_result(recovered, plain, "garbage tail");
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  remove_journal(path);
}

TEST_F(JournalTest, CorruptHeaderStartsFresh) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());

  const std::string path = temp_journal("bad_header");
  remove_journal(path);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "this is not a journal at all";
  }
  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  const auto recovered = run_service(trace, sopt, recover, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_result(recovered, plain, "fresh start after bad header");
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));
  // And the rewritten journal is a valid complete run.
  const auto scan = mooc::scan_journal(path);
  EXPECT_TRUE(scan.found);
  EXPECT_TRUE(scan.run_complete);
  remove_journal(path);
}

TEST_F(JournalTest, MissingJournalRecoversToFreshStart) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());

  const std::string path = temp_journal("missing");
  remove_journal(path);
  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  const auto recovered = run_service(trace, sopt, recover, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_same_result(recovered, plain, "recover with no journal");
  remove_journal(path);
}

TEST_F(JournalTest, ForeignJournalIsRefused) {
  const auto trace_a = make_trace(300, 2, 30, 11);
  const auto trace_b = make_trace(300, 2, 30, 12);  // different seed
  const auto sopt = make_options();
  util::Status st;
  const std::string path = temp_journal("foreign");
  remove_journal(path);
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace_a, sopt, req, st);
  ASSERT_TRUE(st.ok());

  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  (void)run_service(trace_b, sopt, recover, st);
  EXPECT_EQ(st.code, util::StatusCode::kInvalidInput)
      << "a journal for another trace must be refused, got "
      << st.to_string();

  // A different config is refused too.
  auto hot = make_options();
  hot.queue.max_retries = 3;
  (void)run_service(trace_a, hot, recover, st);
  EXPECT_EQ(st.code, util::StatusCode::kInvalidInput) << st.to_string();
  remove_journal(path);
}

TEST_F(JournalTest, RecoveredCountersAreThreadCountInvariant) {
  const auto trace = make_trace();
  const auto sopt = make_options();
  util::Status st;
  std::vector<std::string> exports;
  for (const int threads : {1, 2, 8}) {
    util::set_num_threads(threads);
    const std::string path =
        temp_journal("threads_" + std::to_string(threads));
    remove_journal(path);
    mooc::RunRequest crash;
    crash.journal_path = path;
    crash.halt_after_ticks = 13;
    (void)run_service(trace, sopt, crash, st);
    ASSERT_TRUE(st.ok());
    mooc::RunRequest recover;
    recover.journal_path = path;
    recover.recover = true;
    const auto recovered = run_service(trace, sopt, recover, st);
    ASSERT_TRUE(st.ok());
    EXPECT_TRUE(recovered.accounting_ok());
    exports.push_back(counters_sans_journal());
    remove_journal(path);
  }
  ASSERT_EQ(exports.size(), 3u);
  EXPECT_FALSE(exports[0].empty());
  EXPECT_EQ(exports[0], exports[1]) << "threads 1 vs 2";
  EXPECT_EQ(exports[0], exports[2]) << "threads 1 vs 8";
}

// ---- format v2: memo frames name their source ----------------------------

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t le32(const char* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<unsigned char>(p[i]);
  return v;
}

/// One frame as the journal lays it out: [type][u32 len][payload][u32 crc].
struct RawFrame {
  mooc::JournalFrameType type{};
  std::size_t offset = 0;  ///< of the type byte
  std::size_t size = 0;    ///< whole frame, CRC included
  std::string_view payload;
};

/// Walks the frames of a valid journal (the test writes them itself, so
/// no recovery logic is needed here).
std::vector<RawFrame> frames_of(const std::string& bytes) {
  std::vector<RawFrame> out;
  for (std::size_t pos = 0; pos + 9 <= bytes.size();) {
    const std::uint32_t len = le32(bytes.data() + pos + 1);
    RawFrame f;
    f.type = static_cast<mooc::JournalFrameType>(bytes[pos]);
    f.offset = pos;
    f.size = 9 + len;
    f.payload = std::string_view(bytes).substr(pos + 5, len);
    out.push_back(f);
    pos += f.size;
  }
  return out;
}

std::string encode_frame(mooc::JournalFrameType type,
                         const std::string& payload) {
  std::string f(1, static_cast<char>(type));
  auto put = [&f](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) f.push_back(static_cast<char>(v >> (8 * i)));
  };
  put(static_cast<std::uint32_t>(payload.size()));
  f += payload;
  put(cache::crc32(f));
  return f;
}

/// The integer records of a payload ("<len>\n<decimal>" each), in order;
/// a non-integer record ends the list.
std::vector<std::int64_t> int_records(std::string_view payload) {
  std::vector<std::int64_t> out;
  cache::RecordReader r(payload);
  for (std::int64_t v = 0; r.next_i64(v);) out.push_back(v);
  return out;
}

std::string encode_ints(const std::vector<std::int64_t>& values) {
  std::string p;
  for (const auto v : values) cache::append_i64(p, v);
  return p;
}

constexpr auto kCacheSource =
    static_cast<std::int64_t>(mooc::ReplaySource::kCache);

TEST_F(JournalTest, RewrittenMemoSourceIdFailsRecovery) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  const std::string path = temp_journal("memo_source");
  remove_journal(path);
  util::Status st;
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace, sopt, req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();

  std::string bytes = read_bytes(path);
  bool rewritten = false;
  for (const auto& f : frames_of(bytes)) {
    if (f.type != mooc::JournalFrameType::kReplayed) continue;
    // id, source, disposition, lane, source id
    auto rec = int_records(f.payload);
    ASSERT_EQ(rec.size(), 5u);
    ASSERT_NE(rec[1], kCacheSource);
    rec[4] += 1;  // a different (still well-formed) source submission
    bytes.replace(f.offset, f.size,
                  encode_frame(f.type, encode_ints(rec)));
    rewritten = true;
    break;
  }
  ASSERT_TRUE(rewritten) << "the run journaled no memo replay";
  write_bytes(path, bytes);
  // Frame-valid: the scan still trusts every tick.
  EXPECT_EQ(mooc::scan_journal(path).torn_bytes, 0);

  mooc::RunRequest recover;
  recover.journal_path = path;
  recover.recover = true;
  (void)run_service(trace, sopt, recover, st);
  EXPECT_EQ(st.code, util::StatusCode::kInternalError) << st.to_string();
  EXPECT_NE(st.message.find("journal replay diverged (dedup replay)"),
            std::string::npos)
      << st.to_string();
  remove_journal(path);
}

/// Every memo frame of a journaled run names the first submission with
/// the same body whose outcome that memo holds: for a lint memo the first
/// lint-rejected kOutcome, for a degraded memo the first lint-clean one,
/// for a full memo (checked when every tick is sound, so every
/// non-degraded outcome is memoized) the first non-degraded, lint-clean
/// kOutcome or kCache frame. Each comes earlier in the file.
void expect_sources_precede(const mooc::SubmissionTrace& trace,
                            const std::string& path, bool all_sound,
                            std::vector<std::int64_t>& memo_kinds) {
  constexpr auto kRejected =
      static_cast<std::int64_t>(mooc::Disposition::kLintRejected);
  // First source per memo kind, keyed by body content.
  std::map<std::string, std::size_t> first[3];
  auto note = [&](int kind, std::size_t id) {
    first[kind].emplace(trace.bodies[trace.events[id].body], id);
  };
  // Named, not a temporary: the frames view into these bytes.
  const std::string bytes = read_bytes(path);
  for (const auto& f : frames_of(bytes)) {
    if (f.type != mooc::JournalFrameType::kOutcome &&
        f.type != mooc::JournalFrameType::kReplayed)
      continue;
    const auto rec = int_records(f.payload);
    ASSERT_GE(rec.size(), 4u);
    const auto id = static_cast<std::size_t>(rec[0]);
    ASSERT_LT(id, trace.events.size());
    if (f.type == mooc::JournalFrameType::kOutcome) {
      if (rec[1] == kRejected) {
        note(0, id);
      } else {
        note(1, id);
        if (rec[3] == 0) note(2, id);  // not degraded
      }
      continue;
    }
    if (rec[1] == kCacheSource) {
      note(2, id);
      continue;
    }
    ASSERT_EQ(rec.size(), 5u);
    const auto kind = static_cast<std::size_t>(rec[1]);
    ++memo_kinds.at(kind);
    const auto src = static_cast<std::size_t>(rec[4]);
    const auto want = first[kind].find(trace.bodies[trace.events[id].body]);
    if (want == first[kind].end()) {
      ADD_FAILURE() << "submission " << id << " replays " << src
                    << ", but no earlier frame holds that memo";
    } else if (kind != 2 || all_sound) {
      EXPECT_EQ(src, want->second) << "submission " << id << ", memo " << kind;
    } else {
      EXPECT_EQ(trace.bodies[trace.events[src].body],
                trace.bodies[trace.events[id].body])
          << "submission " << id << " replays " << src;
    }
  }
}

TEST_F(JournalTest, MemoFramesNameTheFirstSourceWithTheSameBody) {
  // A small body pool, so one tick often grades the same body twice and
  // the memo must keep the first.
  mooc::TraceOptions topt;
  topt.num_students = 1500;
  topt.num_courses = 2;
  topt.ticks = 80;
  topt.unique_bodies_per_course = 24;
  util::Rng rng(5);
  const auto trace = mooc::generate_submission_trace(topt, rng);
  std::vector<std::int64_t> memo_kinds(3, 0);
  const std::string path = temp_journal("memo_sources");
  remove_journal(path);
  util::Status st;
  mooc::RunRequest req;
  req.journal_path = path;
  (void)run_service(trace, make_options(), req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_sources_precede(trace, path, false, memo_kinds);
  remove_journal(path);
  // Lint, degraded and full memos all replayed at least once.
  EXPECT_GT(memo_kinds[0], 0);
  EXPECT_GT(memo_kinds[1], 0);
  EXPECT_GT(memo_kinds[2], 0);

  // No storm: every tick is sound, so full-memo sources are pinned too.
  auto calm = make_options();
  calm.storm_end_tick = 0;
  (void)run_service(trace, calm, req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  expect_sources_precede(trace, path, true, memo_kinds);
  remove_journal(path);

  // A warm rerun: full memos whose source is a cross-run cache hit.
  auto warm = calm;
  warm.queue.cache_domain = "journal-test.sources";
  cache::Cache::global().clear();
  const mooc::GradingService service(warm, counting_grade);
  (void)service.run(trace);
  mooc::RunRequest warm_req;
  warm_req.journal_path = path;
  const auto rerun = service.run(trace, warm_req, st);
  ASSERT_TRUE(st.ok()) << st.to_string();
  EXPECT_GT(rerun.stats.cache_hits, 0);
  expect_sources_precede(trace, path, true, memo_kinds);
  remove_journal(path);
}

TEST_F(JournalTest, VersionOneJournalIsQuarantinedAndRegraded) {
  const auto trace = make_trace(300, 2, 30, 11);
  const auto sopt = make_options();
  util::Status st;
  g_grade_calls.store(0);
  const auto plain = run_service(trace, sopt, {}, st);
  ASSERT_TRUE(st.ok());
  const std::int64_t full_grades = g_grade_calls.load();
  ASSERT_GT(full_grades, 0);

  // Journals of previous formats: this run's frames under a header that
  // says version 1 (only the version is wrong), and under a version-2
  // header that still ends in the shard index and shard count formats 1
  // and 2 wrote. CRCs are recomputed, so only the header is stale.
  for (const std::int64_t version : {1, 2}) {
    SCOPED_TRACE("version " + std::to_string(version));
    const std::string path = temp_journal("v" + std::to_string(version));
    remove_journal(path);
    mooc::RunRequest crash;
    crash.journal_path = path;
    crash.halt_after_ticks = 12;
    (void)run_service(trace, sopt, crash, st);
    ASSERT_TRUE(st.ok());
    std::string bytes = read_bytes(path);
    const auto header = frames_of(bytes).at(0);
    ASSERT_EQ(header.type, mooc::JournalFrameType::kHeader);
    auto fields = int_records(header.payload);
    ASSERT_EQ(fields.size(), 6u);
    ASSERT_EQ(fields.at(0),
              static_cast<std::int64_t>(mooc::kJournalFormatVersion));
    fields[0] = version;
    if (version == 2) fields.insert(fields.end(), {0, 1});
    bytes.replace(header.offset, header.size,
                  encode_frame(header.type, encode_ints(fields)));
    write_bytes(path, bytes);
    EXPECT_FALSE(mooc::scan_journal(path).found);

    g_grade_calls.store(0);
    mooc::RunRequest recover;
    recover.journal_path = path;
    recover.recover = true;
    const auto recovered = run_service(trace, sopt, recover, st);
    ASSERT_TRUE(st.ok()) << st.to_string();
    expect_same_result(recovered, plain, "old-format journal");
    // Nothing was replayed: the drain regraded from tick 0.
    EXPECT_EQ(g_grade_calls.load(), full_grades);
    const auto counters = obs::Registry::global().snapshot().counters;
    EXPECT_EQ(counters.count("journal.ticks_replayed"), 0u);
    EXPECT_EQ(counters.at("journal.quarantined_bytes"),
              static_cast<std::int64_t>(bytes.size()));
    EXPECT_EQ(read_bytes(path + ".quarantine"), bytes);
    const auto scan = mooc::scan_journal(path);
    EXPECT_TRUE(scan.found);
    EXPECT_TRUE(scan.run_complete);
    EXPECT_EQ(scan.header.version, mooc::kJournalFormatVersion);
    remove_journal(path);
  }
}

// ---- trace options validation (satellite: the TraceOptions contract) ----

TEST_F(JournalTest, TraceOptionsValidation) {
  EXPECT_TRUE(mooc::validate(mooc::TraceOptions{}).ok());

  auto expect_invalid = [](mooc::TraceOptions t, const char* what) {
    const auto st = mooc::validate(t);
    EXPECT_EQ(st.code, util::StatusCode::kInvalidInput) << what;
  };
  mooc::TraceOptions t;
  t.num_students = -1;
  expect_invalid(t, "negative students");
  t = {};
  t.num_courses = 0;
  expect_invalid(t, "zero courses");
  t = {};
  t.num_courses = 5000;
  expect_invalid(t, "too many courses");
  t = {};
  t.ticks = 1;
  expect_invalid(t, "degenerate semester");
  t = {};
  t.deadline_every = 1;
  expect_invalid(t, "deadline every tick");
  t = {};
  t.deadline_every = 500;  // > ticks (200)
  expect_invalid(t, "deadline past semester");
  t = {};
  t.participation_rate = 1.5;
  expect_invalid(t, "participation > 1");
  t = {};
  t.resubmit_rate = -0.1;
  expect_invalid(t, "negative resubmit rate");
  t = {};
  t.max_submissions = 0;
  expect_invalid(t, "zero submissions");
  t = {};
  t.unique_bodies_per_course = 0;
  expect_invalid(t, "empty body pool");
  t = {};
  t.body_bytes = 8;
  expect_invalid(t, "bodies below digest floor");
}

}  // namespace
}  // namespace l2l
