#include "api/axb.hpp"

#include <sstream>
#include <vector>

#include "api/detail.hpp"
#include "cache/cache.hpp"
#include "linalg/cg.hpp"
#include "linalg/dense.hpp"
#include "linalg/sparse.hpp"
#include "util/budget.hpp"
#include "util/strings.hpp"

namespace l2l::api {

namespace {

constexpr std::uint64_t kAxbFormatVersion = 1;

constexpr auto result_fields = [](auto& io, auto& r) {
  io.str(r.output);
  io.str(r.error_output);
  io.i64(r.exit_code);
  cache::wire::status(io, r.status);
};

AxbResult fail_with(util::Status status) {
  AxbResult res;
  res.error_output = "error: " + status.to_string() + "\n";
  res.exit_code = util::exit_code_for(status);
  res.status = std::move(status);
  return res;
}

AxbResult run_solver(const AxbRequest& req) {
  std::istringstream in(req.input);
  // The dimension sizes an n*n dense allocation, so it is validated
  // before any memory is touched: a submission declaring n = 10^9 gets a
  // diagnostic, not an OOM abort.
  constexpr int kMaxDim = 4096;
  int n = 0;
  if (!(in >> n))
    return fail_with(util::Status::parse_error("bad or missing dimension"));
  if (n <= 0 || n > kMaxDim)
    return fail_with(util::Status::invalid(
        util::format("dimension %d out of range [1, %d]", n, kMaxDim)));
  linalg::DenseMatrix a(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      if (!(in >> a.at(i, j)))
        return fail_with(util::Status::parse_error(util::format(
            "matrix entry (%d, %d) missing or not a number", i, j)));
  std::vector<double> b(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < b.size(); ++i)
    if (!(in >> b[i]))
      return fail_with(util::Status::parse_error(util::format(
          "rhs entry %d missing or not a number", static_cast<int>(i))));

  AxbResult res;
  if (req.use_cg) {
    linalg::SparseMatrix s(n);
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (a.at(i, j) != 0.0) s.add(i, j, a.at(i, j));
    s.compress();
    if (!s.is_symmetric(1e-9))
      return fail_with(
          util::Status::invalid("--cg requires a symmetric matrix"));
    util::Budget budget;
    linalg::CgOptions cgopt;
    if (req.time_limit_ms >= 0) {
      budget.set_deadline_ms(req.time_limit_ms);
      cgopt.budget = &budget;
    }
    const auto cg = linalg::conjugate_gradient(s, b, cgopt);
    if (!cg.converged) {
      if (req.time_limit_ms >= 0 && budget.exhausted())
        return fail_with(budget.status());
      std::ostringstream err;
      err << "error: CG did not converge (residual " << cg.residual << ")\n";
      res.error_output = err.str();
      res.exit_code = util::kExitFail;
      res.status = util::Status{util::StatusCode::kInvalidInput,
                                "CG did not converge"};
      return res;
    }
    std::ostringstream out;
    out << "x =";
    for (const double v : cg.x) out << " " << v;
    out << "\n# cg iterations " << cg.iterations << "\n";
    res.output = out.str();
    res.exit_code = util::kExitOk;
    return res;
  }

  const auto x = linalg::solve_gauss(a, b);
  if (!x) {
    res.error_output = "error: singular matrix\n";
    res.exit_code = util::kExitFail;
    res.status =
        util::Status{util::StatusCode::kInvalidInput, "singular matrix"};
    return res;
  }
  std::ostringstream out;
  out << "x =";
  for (const double v : *x) out << " " << v;
  out << "\n";
  res.output = out.str();
  res.exit_code = util::kExitOk;
  return res;
}

}  // namespace

AxbResult solve_axb(const AxbRequest& req) {
  std::optional<cache::CacheKey> key;
  if (req.cacheable()) {
    cache::Hasher h;
    h.u64(kAxbFormatVersion).boolean(req.use_cg);
    key = cache::CacheKey{"axb", cache::digest_bytes(req.input), h.finish()};
  }
  return detail::cached_call<AxbResult>(
      key, [&] { return run_solver(req); }, result_fields);
}

}  // namespace l2l::api
