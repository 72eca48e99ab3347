// sis_lite: multi-level logic optimization scripting environment in the
// spirit of SIS [11] -- the MOOC's multi-level portal. Reads commands from
// a script file or stdin; the working network is loaded with read_blif.
//
// Commands:
//   read_blif <file>         load a network (or `read_blif -` + inline
//                            BLIF terminated by `.end`)
//   write_blif [file]        dump the network (default stdout)
//   print_stats              nodes / literals / levels
//   print_factor <node>      factored form of one node
//   sweep | eliminate [N] | gkx | gcx | resub | simplify | full_simplify
//   script.algebraic         the canned optimization script (runs through
//                            api::optimize_network, so the result cache
//                            replays identical networks)
//   map [-delay]             technology map and report area/delay
//   quit
//
// Usage: sis_lite [--lint] [shared pack: --metrics/--trace/--no-cache/
// --cache-dir] [script-file] (default input: stdin). --lint
// runs the L2L-Bxxx rule pack on every network read_blif loads; lint
// errors abort with exit 3 before parsing.
//
// Exit codes: 0 ok, 2 usage/IO, 3 malformed script or BLIF, 5 internal
// error.

#include <fstream>
#include <iostream>
#include <sstream>

#include "api/mls.hpp"
#include "common_cli.hpp"
#include "lint/lint.hpp"
#include "mls/factor.hpp"
#include "mls/passes.hpp"
#include "mls/script.hpp"
#include "mls/sop.hpp"
#include "network/blif.hpp"
#include "obs/trace.hpp"
#include "sema/sema.hpp"
#include "techmap/mapper.hpp"
#include "util/arg_parser.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"

namespace {

using l2l::network::Network;

int run(std::istream& in, std::ostream& out, bool lint, bool sema) {
  Network net;
  bool loaded = false;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto t = std::string(l2l::util::trim(line));
    if (t.empty() || t[0] == '#') continue;
    const auto tok = l2l::util::split(t);
    try {
      if (tok[0] == "read_blif") {
        if (tok.size() < 2) throw std::runtime_error("read_blif needs a file");
        std::string text;
        if (tok[1] == "-") {
          std::string bl;
          while (std::getline(in, bl)) {
            text += bl + "\n";
            if (std::string(l2l::util::trim(bl)) == ".end") break;
          }
        } else {
          std::ifstream f(tok[1]);
          if (!f) throw std::runtime_error("cannot open " + tok[1]);
          std::ostringstream ss;
          ss << f.rdbuf();
          text = ss.str();
        }
        if (lint && l2l::tools::print_findings(out, "lint: ",
                                               l2l::lint::lint_blif(text)))
          throw std::runtime_error("lint found errors in " + tok[1]);
        if (sema &&
            l2l::tools::print_findings(
                out, "sema: ", l2l::sema::analyze_blif(text).findings))
          throw std::runtime_error("sema found errors in " + tok[1]);
        net = l2l::network::parse_blif(text);
        loaded = true;
        out << "read " << net.model_name() << ": " << net.inputs().size()
            << " inputs, " << net.outputs().size() << " outputs, "
            << net.num_logic_nodes() << " nodes\n";
        continue;
      }
      if (!loaded) throw std::runtime_error("no network loaded");
      if (tok[0] == "write_blif") {
        const auto text = l2l::network::write_blif(net);
        if (tok.size() > 1) {
          std::ofstream f(tok[1]);
          f << text;
          out << "wrote " << tok[1] << "\n";
        } else {
          out << text;
        }
      } else if (tok[0] == "print_stats") {
        int max_level = 0;
        for (const int l : net.levels()) max_level = std::max(max_level, l);
        out << net.model_name() << ": nodes " << net.num_logic_nodes()
            << ", literals " << net.num_literals() << ", levels "
            << max_level << "\n";
      } else if (tok[0] == "print_factor") {
        const auto id = net.find(tok.at(1));
        if (!id) throw std::runtime_error("unknown node " + tok[1]);
        const auto sop = l2l::mls::sop_of_node(net, *id);
        const auto expr = l2l::mls::factor(sop);
        out << tok[1] << " = " << l2l::mls::expr_to_string(net, expr) << "  ("
            << l2l::mls::expr_literals(expr) << " literals factored, "
            << l2l::mls::sop_literals(sop) << " flat)\n";
      } else if (tok[0] == "sweep") {
        out << "swept " << l2l::mls::sweep(net) << " nodes\n";
      } else if (tok[0] == "eliminate") {
        int threshold = 0;
        if (tok.size() > 1) {
          const auto v = l2l::util::parse_int(tok[1]);
          if (!v) throw std::runtime_error("bad eliminate threshold " + tok[1]);
          threshold = *v;
        }
        out << "eliminated " << l2l::mls::eliminate(net, threshold)
            << " nodes\n";
      } else if (tok[0] == "gkx") {
        out << "extracted " << l2l::mls::extract_kernels(net) << " kernels\n";
      } else if (tok[0] == "gcx") {
        out << "extracted " << l2l::mls::extract_cubes(net) << " cubes\n";
      } else if (tok[0] == "resub") {
        out << "resubstituted " << l2l::mls::resubstitute(net) << " nodes\n";
      } else if (tok[0] == "simplify") {
        out << "saved " << l2l::mls::simplify_nodes(net) << " literals\n";
      } else if (tok[0] == "full_simplify") {
        out << "saved " << l2l::mls::simplify_with_sdc(net)
            << " literals (with SDC)\n";
      } else if (tok[0] == "script.algebraic") {
        const auto res =
            l2l::api::optimize_network(net, l2l::mls::ScriptOptions{});
        out << res.stats.to_string() << "\n";
      } else if (tok[0] == "map") {
        const auto obj = tok.size() > 1 && tok[1] == "-delay"
                             ? l2l::techmap::MapObjective::kDelay
                             : l2l::techmap::MapObjective::kArea;
        const auto res = l2l::techmap::technology_map(
            net, l2l::techmap::default_library(), obj);
        out << "mapped: " << res.gates.size() << " gates, area "
            << res.total_area << ", delay " << res.critical_delay << "\n";
      } else if (tok[0] == "quit" || tok[0] == "exit") {
        break;
      } else {
        throw std::runtime_error("unknown command " + tok[0]);
      }
    } catch (const std::exception& e) {
      // Script and BLIF errors are malformed input, not tool failures:
      // exit 3 under the shared convention so graders can classify them.
      out << "error on line " << lineno << ": " << e.what() << "\n";
      return l2l::util::kExitParse;
    }
  }
  return l2l::util::kExitOk;
}

}  // namespace

int main(int argc, char** argv) try {
  l2l::obs::ExportOnExit obs_export;
  l2l::tools::CommonFlags common;

  l2l::util::ArgParser parser;
  l2l::tools::add_common_flags(parser, common, obs_export);
  l2l::tools::add_cache_flags(parser, common);
  if (const auto st = parser.parse(argc, argv); !st.ok()) {
    std::cerr << "error: " << st.message << "\n";
    return l2l::util::kExitUsage;
  }
  l2l::tools::apply_cache_flags(common);

  // The interpreter streams its input (read_blif - consumes the lines
  // that follow), so the file/stdin choice stays a live stream here
  // instead of going through read_input_text.
  if (!parser.positionals().empty()) {
    const auto& path = parser.positionals().front();
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open " << path << "\n";
      return l2l::util::kExitUsage;
    }
    return run(in, std::cout, common.lint, common.sema);
  }
  return run(std::cin, std::cout, common.lint, common.sema);
} catch (const std::exception& e) {
  std::cerr << "error: " << l2l::util::Status::internal(e.what()).to_string()
            << "\n";
  return l2l::util::kExitInternal;
} catch (...) {
  std::cerr << "error: internal-error: unknown\n";
  return l2l::util::kExitInternal;
}
