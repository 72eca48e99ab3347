#pragma once
// The Unate Recursive Paradigm (URP).
//
// Week 1 of the course: recursive cofactoring on a "most binate" splitting
// variable, with unate covers as the easy terminal cases. These routines
// are the computational heart of MOOC software Project 1.
//
// is_tautology, cover_contains_cube, complement and sccc build no Cover
// per recursion node: each call recurses over index spans of one cube
// arena it owns (DESIGN.md "URP over index spans of one cube arena").

#include <optional>
#include <vector>

#include "cubes/cover.hpp"

namespace l2l::cubes {

/// Splitting-variable heuristic: the most *binate* variable (appears in the
/// most cubes counting both phases, ties broken by the more balanced
/// phase split, then lowest index). Returns -1 when no variable appears.
int select_split_var(const Cover& f);

/// True if the cover is unate: no variable appears in both phases.
bool is_unate(const Cover& f);

/// URP tautology check: does the cover equal constant 1?
bool is_tautology(const Cover& f);

/// is_tautology of the OR of `cubes`, a list the caller built (such as a
/// cofactor): the list becomes the recursion's arena, with no Cover built
/// around it. No cube may be empty; a Cover never holds one.
bool is_tautology(int num_vars, std::vector<Cube> cubes);

/// Does cover `f` contain cube `c` (c => f)? Implemented as the classic
/// reduction: f contains c iff the cofactor of f with respect to c is a
/// tautology.
bool cover_contains_cube(const Cover& f, const Cube& c);

/// Do two covers denote the same function?
bool covers_equal(const Cover& f, const Cover& g);

/// URP complement. The result is a (generally non-minimal) SOP for f'.
Cover complement(const Cover& f);

/// SCCC: the smallest cube containing the complement of f, by the same
/// unate-recursive split as complement() but keeping one cube per node
/// instead of a cover. A unate node ends at once: its supercube is the
/// product of the opposite literals of its one-literal cubes. nullopt
/// when f is a tautology (empty complement).
std::optional<Cube> sccc(const Cover& f);

/// sccc of the OR of `cubes`, taken as the arena like is_tautology's
/// list overload. No cube may be empty.
std::optional<Cube> sccc(int num_vars, std::vector<Cube> cubes);

/// Sharp: the cover of f AND NOT g.
Cover sharp(const Cover& f, const Cover& g);

/// XOR via complements: f g' + f' g.
Cover exclusive_or(const Cover& f, const Cover& g);

/// Existential quantification of one variable: f_x + f_x'.
Cover exists(const Cover& f, int var);

/// Universal quantification of one variable: f_x AND f_x'.
Cover forall(const Cover& f, int var);

/// Boolean difference df/dx = f_x XOR f_x'.
Cover boolean_difference(const Cover& f, int var);

/// Recursive SOP simplification (the course's SIMPLIFY): Shannon-split on
/// the most binate variable, simplify the cofactors, merge with x·F1 + x'·F0
/// and containment cleanup; returns the input when no improvement is found.
Cover simplify(const Cover& f);

}  // namespace l2l::cubes
