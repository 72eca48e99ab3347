#pragma once
// Multi-level synthesis facade (sis_lite's script.algebraic and the
// flow's synthesis stage). Two shapes of the same engine:
//
//  * optimize_blif: text in, text out -- the pure content-addressed form.
//  * optimize_network: in-place on a parsed Network, exactly like calling
//    mls::optimize directly. On a cache miss the network is optimized in
//    place (bit-for-bit the uncached code path); on a hit it is replaced
//    by the cached canonical BLIF. write_blif/parse_blif round-tripping
//    is the repo's canonicalization (the flow already starts with it), so
//    both paths yield the same network.
//
// Engine id "mls". The algebraic script is deterministic and unbudgeted:
// every request is cacheable.

#include <string>

#include "api/base.hpp"
#include "mls/script.hpp"
#include "network/network.hpp"
#include "util/status.hpp"

namespace l2l::api {

/// time_limit_ms / use_cache come from RequestBase (api/base.hpp). The
/// algebraic script has no internal wall-clock budget; a time limit only
/// marks the request uncacheable.
struct MlsRequest : RequestBase {
  std::string blif;  ///< canonical BLIF text of the input network
  mls::ScriptOptions options;
};

struct MlsResult {
  std::string blif;  ///< optimized network, write_blif text
  mls::ScriptStats stats;
  /// Non-ok (kParseError) when the input BLIF does not parse.
  util::Status status;
  bool cached = false;
};

MlsResult optimize_blif(const MlsRequest& req);

struct MlsNetworkResult {
  mls::ScriptStats stats;
  bool cached = false;
};

/// In-place variant for callers already holding a Network.
MlsNetworkResult optimize_network(network::Network& net,
                                  const mls::ScriptOptions& opt);

}  // namespace l2l::api
