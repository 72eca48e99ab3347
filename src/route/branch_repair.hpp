#pragma once
// Branch repair, the negotiation tail's rip-up (router.cpp): a routed net
// that shares points with other nets loses only the wire near them and
// is mended by a search between the pieces that are left, instead of
// being ripped up and routed again whole. This is how connection-based
// routers avoid re-doing whole nets (CRoute, Vansteenkiste et al., FPGA
// 2016), and how DATC RDF's detailed router repairs within a region.

#include <cstdint>
#include <vector>

#include "route/maze.hpp"

namespace l2l::route {

/// Wires within this many tree steps of a contested point are dropped
/// with it. EXPERIMENTS.md ("Branch repair") has the radius sweep.
constexpr int kRepairRadius = 6;

/// Repairs `net`'s tree, given as its pins plus `old_wires`. A wire is
/// contested when `usage` (per point) counts another wire on its point:
/// `old_wires` must already be taken out of `usage`. Every contested wire
/// goes, and with it each wire the tree reaches within kRepairRadius
/// steps of one, walking outward and stopping at pins and at uncontested
/// Steiner junctions (cells with more than two tree neighbours). Wires
/// left in pieces that hold no pin go too. Then one many-source,
/// many-target find_path per gap, priced with `field`, joins the piece
/// holding pin 0 (the sources) to the nearest of the other pin-bearing
/// pieces (the targets), until one piece is left, and wire stubs that end
/// at no pin are pruned.
///
/// `wires` receives the repaired tree's wires: those of `old_wires` in
/// their order, then the new ones in path order. `occ` must hold the net's pins
/// and none of its wires; it is left as it was found. `slot` is per-point
/// scratch, sized like `occ` and all -1 on entry and on exit. Expansions
/// are added to `expansions`. Returns false, with `wires` empty, when a
/// gap cannot be joined.
bool repair_tree(SearchArena& arena, const gen::RoutingNet& net, Occupancy& occ,
                 const RouteCosts& costs, const std::vector<double>& field,
                 const std::vector<int>& usage, const std::vector<GridPoint>& old_wires,
                 std::vector<std::int32_t>& slot, std::vector<GridPoint>& wires,
                 long long& expansions);

}  // namespace l2l::route
