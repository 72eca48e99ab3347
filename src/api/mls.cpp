#include "api/mls.hpp"

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "network/blif.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kMlsFormatVersion = 1;

cache::Digest128 config_digest(const mls::ScriptOptions& opt) {
  cache::Hasher h;
  h.u64(kMlsFormatVersion)
      .i32(opt.eliminate_threshold)
      .boolean(opt.use_sdc_simplify)
      .i32(opt.passes);
  return h.finish();
}

void append_stats(std::string& out, const mls::ScriptStats& s) {
  cache::append_i64(out, s.literals_before);
  cache::append_i64(out, s.literals_after);
  cache::append_i64(out, s.nodes_before);
  cache::append_i64(out, s.nodes_after);
  cache::append_i64(out, s.swept);
  cache::append_i64(out, s.eliminated);
  cache::append_i64(out, s.kernels_extracted);
  cache::append_i64(out, s.cubes_extracted);
  cache::append_i64(out, s.resubstitutions);
}

bool read_stats(cache::RecordReader& in, mls::ScriptStats& s) {
  std::int64_t v[9];
  for (auto& f : v)
    if (!in.next_i64(f)) return false;
  s.literals_before = static_cast<int>(v[0]);
  s.literals_after = static_cast<int>(v[1]);
  s.nodes_before = static_cast<int>(v[2]);
  s.nodes_after = static_cast<int>(v[3]);
  s.swept = static_cast<int>(v[4]);
  s.eliminated = static_cast<int>(v[5]);
  s.kernels_extracted = static_cast<int>(v[6]);
  s.cubes_extracted = static_cast<int>(v[7]);
  s.resubstitutions = static_cast<int>(v[8]);
  return true;
}

std::string serialize(const std::string& blif, const mls::ScriptStats& s) {
  std::string out;
  cache::append_record(out, blif);
  append_stats(out, s);
  return out;
}

bool deserialize(std::string_view bytes, std::string& blif,
                 mls::ScriptStats& s) {
  cache::RecordReader in(bytes);
  return in.next_string(blif) && read_stats(in, s) && in.complete();
}

}  // namespace

MlsResult optimize_blif(const MlsRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable())
    key = cache::CacheKey{"mls", cache::digest_bytes(req.blif),
                          config_digest(req.options)};
  return detail::cached_call<MlsResult>(
      key,
      [](std::string_view bytes, MlsResult& res) {
        return deserialize(bytes, res.blif, res.stats);
      },
      [&] {
        MlsResult res;
        network::Network net;
        try {
          net = network::parse_blif(req.blif);
        } catch (const std::exception& e) {
          res.status = util::Status::parse_error(e.what());
          return res;
        }
        res.stats = mls::optimize(net, req.options);
        res.blif = network::write_blif(net);
        return res;
      },
      [](const MlsResult& res) -> std::optional<std::string> {
        // An unparsable input is answered afresh every time, never stored.
        if (!res.status.ok()) return std::nullopt;
        return serialize(res.blif, res.stats);
      });
}

MlsNetworkResult optimize_network(network::Network& net,
                                  const mls::ScriptOptions& opt) {
  return detail::cached_call<MlsNetworkResult>(
      cache::CacheKey{"mls", cache::digest_bytes(network::write_blif(net)),
                      config_digest(opt)},
      [&](std::string_view bytes, MlsNetworkResult& res) {
        std::string blif;
        if (!deserialize(bytes, blif, res.stats)) return false;
        net = network::parse_blif(blif);
        return true;
      },
      // Miss: optimize in place -- bit-for-bit the uncached code path.
      [&] { return MlsNetworkResult{mls::optimize(net, opt)}; },
      [&](const MlsNetworkResult& res) {
        return serialize(network::write_blif(net), res.stats);
      });
}

}  // namespace l2l::api
