#pragma once

#include <cstdint>
#include <string>
#include <vector>

/// Machine-readable result rows.
namespace et::metrics {

/// Accumulates machine-readable {config, seed, metric, value} rows and
/// renders them as a JSON array — the persisted BENCH_*.json format that
/// lets the perf/robustness trajectory survive repo re-anchors, and the
/// chaos fuzzer's differential digest. Rows are appended in deterministic
/// (job) order so serial and parallel sweeps produce byte-identical files.
class JsonRows {
 public:
  /// Appends one row with the value rendered as %.6g. JSON has no NaN/Inf
  /// literal; non-finite values (e.g. the NaN mean_error of a run with
  /// zero reports) become null.
  void add(const std::string& config, std::uint64_t seed,
           const std::string& metric, double value) {
    add_row(config, seed, metric, value, 6);
  }

  /// Like add(), but renders the value with full round-trip precision
  /// (%.17g). The chaos fuzzer's serial-vs-parallel differential diffs
  /// these rows byte-for-byte, so a divergence below %.6g must not be
  /// rounded away.
  void add_exact(const std::string& config, std::uint64_t seed,
                 const std::string& metric, double value) {
    add_row(config, seed, metric, value, 17);
  }

  /// Individual rows, for diff tooling that wants the first divergence
  /// rather than a whole-file compare.
  const std::vector<std::string>& rows() const { return rows_; }

  std::string render() const;

  bool empty() const { return rows_.empty(); }

 private:
  /// Renders the value with `digits` significant digits (%.*g).
  void add_row(const std::string& config, std::uint64_t seed,
               const std::string& metric, double value, int digits);

  std::vector<std::string> rows_;
};

}  // namespace et::metrics
