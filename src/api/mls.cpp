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

// One record for both entry points: the optimized BLIF, then the stats.
constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.blif);
  auto& s = r.stats;
  io.i64(s.literals_before);
  io.i64(s.literals_after);
  io.i64(s.nodes_before);
  io.i64(s.nodes_after);
  io.i64(s.swept);
  io.i64(s.eliminated);
  io.i64(s.kernels_extracted);
  io.i64(s.cubes_extracted);
  io.i64(s.resubstitutions);
};

}  // namespace

MlsResult optimize_blif(const MlsRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable())
    key = cache::CacheKey{"mls", cache::digest_bytes(req.blif),
                          config_digest(req.options)};
  return detail::cached_call<MlsResult>(
      key,
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
      // An unparsable input is answered afresh every time, never stored.
      result_fields, [](const MlsResult& res) { return res.status.ok(); });
}

MlsNetworkResult optimize_network(network::Network& net,
                                  const mls::ScriptOptions& opt) {
  // The record holds the network as BLIF, so a hit replaces `net` and
  // the lookup and insert are made here rather than in cached_call.
  const cache::CacheKey key{
      "mls", cache::digest_bytes(network::write_blif(net)), config_digest(opt)};
  auto& store = cache::Cache::global();
  MlsResult rec;
  if (const auto hit = store.lookup(key);
      hit && cache::wire::decode(*hit, rec, result_fields)) {
    try {
      net = network::parse_blif(rec.blif);
      return {rec.stats, true};
    } catch (const std::exception&) {
      // A forged entry's BLIF: recompute as on a miss.
    }
  }
  // Miss: optimize in place -- bit-for-bit the uncached code path.
  rec.stats = mls::optimize(net, opt);
  rec.blif = network::write_blif(net);
  store.insert(key, cache::wire::encode(rec, result_fields));
  return {rec.stats, false};
}

}  // namespace l2l::api
