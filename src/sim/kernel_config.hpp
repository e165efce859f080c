#pragma once

/// Kernel selection knobs, shared by scenario params and SystemConfig.
/// Lives apart from sim/parallel.hpp so configs don't drag in <thread>.
///
/// Canonical order has one window semantics: sends issued from mote context
/// pay an explicit MAC-entry (handoff) latency and receptions pay a longer
/// completion-to-receiver handoff (both multiples of the minimum frame
/// airtime, see RadioConfig), and the parallel kernel plans adaptive
/// per-tile window bounds from a tile-pair lookahead matrix. The serial
/// canonical oracle applies the identical latencies, so serial and parallel
/// stay bit-exact.
namespace et::sim {

struct KernelConfig {
  /// Run the simulation on the parallel tiled kernel (sim/parallel.hpp).
  /// Implies canonical event order.
  bool use_parallel_kernel = false;
  /// Use the canonical (time, owner, seq) event order on the serial kernel.
  /// This is the serial oracle the parallel kernel is bit-exact against;
  /// off (default) keeps the legacy (time, FIFO) order byte-identical to
  /// the seed.
  bool canonical_order = false;
  /// Worker threads for the parallel kernel.
  unsigned threads = 4;
  /// Spatial tiles per worker thread (more tiles -> finer load balance,
  /// more barrier bookkeeping).
  unsigned tiles_per_thread = 1;

  bool canonical() const { return use_parallel_kernel || canonical_order; }
};

}  // namespace et::sim
