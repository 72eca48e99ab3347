#pragma once
// The flow workload: seeded gen:: netlists through flow::run_flow, one
// after another (a closed loop with one client).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "network/network.hpp"

namespace e2e {

struct FlowSize {
  int small = 96;   ///< ~2-120 ms designs: synthesis, mapping, timing show
  int medium = 16;  ///< ~0.3-0.8 s designs: routing dominates
};

struct FlowDesign {
  std::string name;
  l2l::network::Network net;
};

/// A pure function of (seed, size); mediums are spread evenly through
/// the list.
std::vector<FlowDesign> make_flow_designs(std::uint64_t seed,
                                          const FlowSize& size);

struct FlowPass {
  double wall_s = 0.0;  ///< summed run_flow latency
  std::vector<double> latency_ms;
  /// Non-ok FlowResult::status, or a routed net the route grader finds
  /// illegal.
  std::int64_t failed = 0;
  std::int64_t unrouted_nets = 0;  ///< summed routing.stats.failed
  double wirelength = 0.0;         ///< summed routing.stats.total_wire
  std::map<std::string, double> layers;  ///< traced passes only
};

/// Every design once, each from a cold result cache. `traced` turns the
/// obs layer on and fills `layers` from the flow's stage spans and the
/// engines' counters.
FlowPass run_flow_pass(const std::vector<FlowDesign>& designs, bool traced);

}  // namespace e2e
