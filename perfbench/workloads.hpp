// The benchmark's workloads. Each drives one phase of the program through
// its public entry point and returns a Report whose metrics are the
// end-to-end set (untraced) or the per-layer set (--trace 1).
#pragma once

#include "common.hpp"

namespace perfbench {

/// core::A4nnWorkflow::run on one device with a durable commons
/// (search-serial), or on three devices with lineage off (search-parallel).
Report run_search(const Options& opt, bool parallel);

/// Open-loop ladder of arrival rates into serve::InferenceEngine::submit.
Report run_serve(const Options& opt);

/// Unpaced stream::StreamScenario::run with a mid-stream label rotation.
Report run_stream(const Options& opt);

}  // namespace perfbench
