#pragma once

/// Kernel selection knobs, shared by scenario params and SystemConfig.
/// Lives apart from sim/parallel.hpp so configs don't drag in <thread>.
///
/// Every kernel runs the one canonical event order (see sim/simulator.hpp):
/// sends issued from mote context pay an explicit MAC-entry (handoff)
/// latency and receptions pay a longer completion-to-receiver handoff (both
/// multiples of the minimum frame airtime, see radio::Medium), and the
/// parallel kernel plans adaptive per-tile window bounds from a tile-pair
/// lookahead matrix. The serial kernel applies the identical latencies, so
/// serial and parallel runs stay bit-exact.
namespace et::sim {

struct KernelConfig {
  /// Run the simulation on the parallel tiled kernel (sim/parallel.hpp)
  /// instead of the serial one.
  bool use_parallel_kernel = false;
  /// Worker threads for the parallel kernel.
  unsigned threads = 4;
  /// Spatial tiles per worker thread (more tiles -> finer load balance,
  /// more barrier bookkeeping).
  unsigned tiles_per_thread = 1;
};

}  // namespace et::sim
