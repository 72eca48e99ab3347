#include "cache/cache.hpp"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <list>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/strings.hpp"

namespace l2l::cache {

namespace {

// The process-wide switch. Only lookup() and insert() read it.
std::atomic<bool> g_enabled{true};

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

// On-disk entry format (version bumps invalidate old entries safely --
// an unknown version reads as corrupt and is quarantined):
//
//   L2LCACHE 1
//   engine <id>
//   input <32 hex>
//   config <32 hex>
//   bytes <payload length>
//   check <16 hex, low 64 digest bits of the payload>
//   <payload bytes>
constexpr const char* kMagic = "L2LCACHE";
constexpr int kFormatVersion = 1;

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

std::string CacheKey::file_stem() const {
  return engine + "-" + input.hex() + "-" + config.hex();
}

// ---- sharded LRU ---------------------------------------------------------

struct Cache::Shard {
  struct Entry {
    CacheKey key;
    std::string value;
  };
  std::mutex mu;
  std::list<Entry> lru;  // front = most recent
  // Key -> list position. std::map keeps the invariant gate happy (no
  // unordered iteration anywhere near an export path).
  std::map<std::string, std::list<Entry>::iterator> index;
  std::int64_t bytes = 0;
  std::int64_t hits = 0, misses = 0, inserts = 0, evictions = 0;
};

struct Cache::Impl {
  static constexpr int kShards = 16;  // fixed: independent of L2L_THREADS
  CacheOptions opt;
  mutable std::mutex dir_mu;
  std::vector<std::unique_ptr<Shard>> shards;
  std::atomic<std::int64_t> total_bytes{0};  // cross-shard occupancy gauge

  explicit Impl(CacheOptions o) : opt(std::move(o)) {
    for (int i = 0; i < kShards; ++i)
      shards.push_back(std::make_unique<Shard>());
  }

  Shard& shard_for(const CacheKey& key) {
    // Shard choice is a pure function of the key, so the same key always
    // lands in the same shard regardless of thread schedule.
    const auto i = static_cast<std::size_t>(
        (key.input.lo ^ key.config.hi) % static_cast<std::uint64_t>(kShards));
    return *shards[i];
  }

  std::string dir() const {
    std::lock_guard<std::mutex> lock(dir_mu);
    return opt.disk_dir;
  }
};

Cache::Cache(CacheOptions opt) : impl_(std::make_unique<Impl>(std::move(opt))) {}
Cache::~Cache() = default;

Cache& Cache::global() {
  static Cache* c = [] {
    CacheOptions opt;
    if (const char* dir = std::getenv("L2L_CACHE_DIR"); dir != nullptr)
      opt.disk_dir = dir;
    return new Cache(std::move(opt));  // leaked: threads may outlive exit
  }();
  return *c;
}

namespace {

/// Read + validate one persistent entry. Returns the payload, or nullopt
/// with *corrupt set when the file exists but fails validation.
std::optional<std::string> read_disk_entry(const std::string& path,
                                           const CacheKey& key,
                                           bool* corrupt) {
  *corrupt = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;  // plain miss
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  in.close();

  // Header: six whitespace-framed lines, then the raw payload.
  std::size_t pos = 0;
  auto next_line = [&](std::string& line) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) return false;
    line.assign(text, pos, nl - pos);
    pos = nl + 1;
    return true;
  };
  std::string line;
  auto bad = [&] {
    *corrupt = true;
    return std::nullopt;
  };
  if (!next_line(line)) return bad();
  {
    const auto tok = util::split(line);
    if (tok.size() != 2 || tok[0] != kMagic) return bad();
    const auto ver = util::parse_int(tok[1]);
    if (!ver || *ver != kFormatVersion) return bad();
  }
  auto expect_field = [&](const char* name, const std::string& want) {
    if (!next_line(line)) return false;
    const auto tok = util::split(line);
    return tok.size() == 2 && tok[0] == name && tok[1] == want;
  };
  if (!expect_field("engine", key.engine)) return bad();
  if (!expect_field("input", key.input.hex())) return bad();
  if (!expect_field("config", key.config.hex())) return bad();
  if (!next_line(line)) return bad();
  std::int64_t payload_len = -1;
  {
    const auto tok = util::split(line);
    if (tok.size() != 2 || tok[0] != "bytes") return bad();
    const auto n = util::parse_int64(tok[1]);
    if (!n || *n < 0) return bad();
    payload_len = *n;
  }
  if (!next_line(line)) return bad();
  std::string want_check;
  {
    const auto tok = util::split(line);
    if (tok.size() != 2 || tok[0] != "check") return bad();
    want_check = tok[1];
  }
  if (text.size() - pos != static_cast<std::size_t>(payload_len)) return bad();
  std::string payload = text.substr(pos);
  const Digest128 d = digest_bytes(payload);
  if (Digest128{0, d.lo}.hex().substr(16) != want_check) return bad();
  return payload;
}

void quarantine(const std::string& path) {
  std::error_code ec;
  std::filesystem::rename(path, path + ".quarantine", ec);
  if (ec) std::filesystem::remove(path, ec);  // fall back to dropping it
  obs::count("cache.disk.quarantined");
}

}  // namespace

std::optional<std::string> Cache::lookup(const CacheKey& key) {
  if (!enabled()) return std::nullopt;
  const std::string stem = key.file_stem();
  Shard& sh = impl_->shard_for(key);
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    const auto it = sh.index.find(stem);
    if (it != sh.index.end()) {
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
      ++sh.hits;
      obs::count("cache.hit");
      obs::count("cache.hit." + key.engine);
      return it->second->value;
    }
    ++sh.misses;
  }
  // Persistent tier (outside the shard lock: disk I/O must not serialize
  // unrelated lookups).
  const std::string dir = impl_->dir();
  if (!dir.empty()) {
    const std::string path = dir + "/" + stem + ".l2lc";
    bool corrupt = false;
    if (auto payload = read_disk_entry(path, key, &corrupt)) {
      obs::count("cache.hit");
      obs::count("cache.disk.hit");
      obs::count("cache.hit." + key.engine);
      insert_memory_only(key, *payload);
      return payload;
    }
    if (corrupt) quarantine(path);
  }
  obs::count("cache.miss");
  obs::count("cache.miss." + key.engine);
  return std::nullopt;
}

void Cache::insert(const CacheKey& key, std::string_view value) {
  if (!enabled()) return;
  insert_memory_only(key, value);
  const std::string dir = impl_->dir();
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string stem = key.file_stem();
  const std::string path = dir + "/" + stem + ".l2lc";
  // Unique temp name per thread+key, then atomic rename: a reader never
  // sees a half-written entry, and concurrent writers of the same key
  // both produce the same bytes so last-rename-wins is harmless.
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << std::this_thread::get_id();
  const std::string tmp = tmp_name.str();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return;  // unwritable disk tier degrades to memory-only
    const Digest128 d = digest_bytes(value);
    out << kMagic << ' ' << kFormatVersion << '\n'
        << "engine " << key.engine << '\n'
        << "input " << key.input.hex() << '\n'
        << "config " << key.config.hex() << '\n'
        << "bytes " << value.size() << '\n'
        << "check " << Digest128{0, d.lo}.hex().substr(16) << '\n';
    out.write(value.data(), static_cast<std::streamsize>(value.size()));
    if (!out.good()) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return;
    }
  }
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return;
  }
  obs::count("cache.disk.writes");
}

void Cache::insert_memory_only(const CacheKey& key, std::string_view value) {
  Shard& sh = impl_->shard_for(key);
  const std::string stem = key.file_stem();
  std::int64_t delta = 0;
  {
    std::lock_guard<std::mutex> lock(sh.mu);
    if (const auto it = sh.index.find(stem); it != sh.index.end()) {
      delta -= static_cast<std::int64_t>(it->second->value.size());
      delta += static_cast<std::int64_t>(value.size());
      sh.bytes += delta;
      it->second->value.assign(value);
      sh.lru.splice(sh.lru.begin(), sh.lru, it->second);
    } else {
      sh.lru.push_front(Shard::Entry{key, std::string(value)});
      sh.index.emplace(stem, sh.lru.begin());
      delta += static_cast<std::int64_t>(value.size());
      sh.bytes += delta;
      ++sh.inserts;
      obs::count("cache.insert");
    }
    // Evict past either bound, least-recent first.
    while (static_cast<std::int64_t>(sh.lru.size()) >
               impl_->opt.max_entries_per_shard ||
           (sh.bytes > impl_->opt.max_bytes_per_shard && sh.lru.size() > 1)) {
      const auto& victim = sh.lru.back();
      const auto vbytes = static_cast<std::int64_t>(victim.value.size());
      sh.bytes -= vbytes;
      delta -= vbytes;
      sh.index.erase(victim.key.file_stem());
      sh.lru.pop_back();
      ++sh.evictions;
      obs::count("cache.evict");
    }
  }
  const std::int64_t total =
      impl_->total_bytes.fetch_add(delta, std::memory_order_relaxed) + delta;
  obs::gauge_max("cache.bytes", total);
}

void Cache::clear() {
  for (auto& sh : impl_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    sh->lru.clear();
    sh->index.clear();
    sh->bytes = 0;
  }
  impl_->total_bytes.store(0, std::memory_order_relaxed);
}

void Cache::set_disk_dir(std::string dir) {
  std::lock_guard<std::mutex> lock(impl_->dir_mu);
  impl_->opt.disk_dir = std::move(dir);
}

std::string Cache::disk_dir() const { return impl_->dir(); }

CacheStats Cache::stats() const {
  CacheStats out;
  for (const auto& sh : impl_->shards) {
    std::lock_guard<std::mutex> lock(sh->mu);
    out.hits += sh->hits;
    out.misses += sh->misses;
    out.inserts += sh->inserts;
    out.evictions += sh->evictions;
    out.bytes += sh->bytes;
    out.entries += static_cast<std::int64_t>(sh->lru.size());
  }
  return out;
}

// ---- serialization helpers ----------------------------------------------

void append_record(std::string& out, std::string_view record) {
  out += std::to_string(record.size());
  out += '\n';
  out.append(record.data(), record.size());
}

void append_i64(std::string& out, std::int64_t v) {
  // Formatted on the stack: the journal appends a few of these per
  // scheduled submission.
  char digits[20];
  const char* end = std::to_chars(digits, digits + sizeof(digits), v).ptr;
  append_record(out, std::string_view(digits, static_cast<std::size_t>(
                                                  end - digits)));
}

void append_f64(std::string& out, double v) {
  // Stored as the signed reinterpretation of the IEEE bits so the
  // exception-free parse_int64 round-trips it exactly.
  std::int64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  append_i64(out, bits);
}

bool RecordReader::next(std::string_view& record) {
  if (failed_) return false;
  const auto nl = data_.find('\n', pos_);
  if (nl == std::string_view::npos) {
    failed_ = true;
    return false;
  }
  const auto len =
      util::parse_int64(std::string_view(data_.data() + pos_, nl - pos_));
  if (!len || *len < 0 ||
      nl + 1 + static_cast<std::size_t>(*len) > data_.size()) {
    failed_ = true;
    return false;
  }
  record = data_.substr(nl + 1, static_cast<std::size_t>(*len));
  pos_ = nl + 1 + static_cast<std::size_t>(*len);
  return true;
}

bool RecordReader::next_i64(std::int64_t& v) {
  std::string_view rec;
  if (!next(rec)) return false;
  const auto parsed = util::parse_int64(rec);
  if (!parsed) {
    failed_ = true;
    return false;
  }
  v = *parsed;
  return true;
}

bool RecordReader::next_f64(double& v) {
  std::string_view rec;
  if (!next(rec)) return false;
  const auto parsed = util::parse_int64(rec);
  if (!parsed) {
    failed_ = true;
    return false;
  }
  std::uint64_t bits = static_cast<std::uint64_t>(*parsed);
  std::memcpy(&v, &bits, sizeof(v));
  return true;
}

bool RecordReader::next_string(std::string& s) {
  std::string_view rec;
  if (!next(rec)) return false;
  s.assign(rec);
  return true;
}

}  // namespace l2l::cache
