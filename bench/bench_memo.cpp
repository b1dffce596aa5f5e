// Memoization benchmark: (a) a duplicate-heavy NSGA-Net search run twice —
// memo cold (genome-keyed seeds, no reuse) vs memo on (O(1) replay of
// already-evaluated genomes) — reporting the wall-clock speedup and
// checking the two runs agree on the final Pareto front; (b) a tabular
// sweep throughput measurement: a small space is trained once into a
// genome table, then ablation sweeps are served straight from the table.
// Emits BENCH_memo.json and — with --floor — enforces the shared floor
// gate (floor_gate.hpp).
//
//   ./bench_memo
//   ./bench_memo --floor ../bench/memo_floor.json
#include <algorithm>
#include <cstdio>

#include "floor_gate.hpp"
#include "core/a4nn.hpp"
#include "nas/table.hpp"
#include "util/args.hpp"
#include "util/fsutil.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace a4nn;

namespace {

/// A tiny (16-genome) space makes duplicates unavoidable: with
/// allow_duplicates on, a 64-evaluation search revisits genomes constantly,
/// which is exactly the regime the memo-cache accelerates.
core::WorkflowConfig search_config(nas::MemoMode memo) {
  core::WorkflowConfig cfg;
  cfg.dataset.images_per_class = 12;
  cfg.dataset.detector.pixels = 8;
  cfg.nas.population_size = 8;
  cfg.nas.offspring_per_generation = 8;
  cfg.nas.generations = 8;
  cfg.nas.space.phase_count = 2;
  cfg.nas.space.nodes_per_phase = 2;
  cfg.nas.space.input_shape = {1, 8, 8};
  cfg.nas.allow_duplicates = true;
  cfg.trainer.max_epochs = 6;
  cfg.trainer.use_prediction_engine = false;
  cfg.memo = memo;
  cfg.seed = 2023;
  return cfg;
}

/// Sorted (fitness, flops) pairs of the Pareto front — the equivalence
/// fingerprint the differential tests check in full.
std::vector<std::pair<double, double>> front_points(
    const nas::SearchResult& result) {
  std::vector<std::pair<double, double>> pts;
  for (std::size_t idx : result.pareto)
    pts.emplace_back(result.history[idx].fitness,
                     static_cast<double>(result.history[idx].flops));
  std::sort(pts.begin(), pts.end());
  return pts;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("bench_memo",
                       "Memo-cache + tabular NAS benchmark (BENCH_memo.json)");
  args.add_option("out", "BENCH_memo.json", "output JSON path");
  args.add_option("sweep", "5000", "tabular sweep size (genome lookups)");
  args.add_option("floor", "",
                  "memo_floor.json with minimum values; exit nonzero if "
                  "any metric measures below half its floor or has no entry");
  try {
    args.parse(argc, argv);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "%s\n%s", e.what(), args.usage().c_str());
    return 1;
  }
  if (args.help_requested()) {
    std::printf("%s", args.usage().c_str());
    return 0;
  }

  // ---- (a) duplicate-heavy search: memo cold vs memo on -----------------
  core::A4nnWorkflow cold_flow(search_config(nas::MemoMode::kCold));
  util::Timer cold_timer;
  const core::WorkflowResult cold = cold_flow.run();
  const double cold_seconds = cold_timer.seconds();

  core::A4nnWorkflow on_flow(search_config(nas::MemoMode::kOn),
                             cold_flow.dataset());
  util::Timer on_timer;
  const core::WorkflowResult on = on_flow.run();
  const double on_seconds = on_timer.seconds();

  const double speedup = on_seconds > 0.0 ? cold_seconds / on_seconds : 0.0;
  const bool fronts_match =
      front_points(cold.search) == front_points(on.search);
  if (!fronts_match)
    std::fprintf(stderr,
                 "WARNING: cold and memo-on Pareto fronts differ — "
                 "equivalence is broken, speedup is meaningless\n");

  // ---- (b) tabular sweep throughput -------------------------------------
  // Tabulate the same 16-genome space once (full curves, engine off), then
  // serve a large sweep from the table with the engine replayed offline.
  const auto genomes = nas::enumerate_space(search_config(nas::MemoMode::kOff)
                                                .nas.space);
  xfel::XfelDatasetConfig ds;
  ds.images_per_class = 12;
  ds.detector.pixels = 8;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(ds);

  orchestrator::TrainerConfig trainer;
  trainer.max_epochs = 6;
  trainer.use_prediction_engine = false;
  sched::ClusterConfig cluster_cfg;
  trainer.cost = cluster_cfg.cost;
  nas::SearchSpaceConfig space = search_config(nas::MemoMode::kOff).nas.space;
  space.classes = data.train.num_classes();

  orchestrator::TrainingLoop loop(data.train, data.validation, trainer);
  sched::ResourceManager cluster(cluster_cfg);
  orchestrator::WorkflowEvaluator trainer_eval(loop, cluster, space, 2023);
  util::Timer tabulate_timer;
  const auto table_records = trainer_eval.evaluate_generation(genomes, 0);
  const double tabulate_seconds = tabulate_timer.seconds();
  const nas::GenomeTable table = nas::GenomeTable::from_records(table_records);

  nas::TableEvaluator sweep_eval(table, penguin::default_engine_config());
  const std::size_t sweep = args.get_size("sweep");
  std::vector<nas::Genome> queries;
  queries.reserve(sweep);
  util::Rng rng(7);
  for (std::size_t i = 0; i < sweep; ++i)
    queries.push_back(genomes[rng.next_u64() % genomes.size()]);
  util::Timer sweep_timer;
  std::size_t sweep_failed = 0;
  for (std::size_t start = 0; start < sweep; start += 100) {
    const std::size_t n = std::min<std::size_t>(100, sweep - start);
    const auto records = sweep_eval.evaluate_generation(
        std::span<const nas::Genome>(queries.data() + start, n),
        static_cast<int>(start / 100));
    for (const auto& r : records)
      if (r.failed) ++sweep_failed;
  }
  const double sweep_seconds = sweep_timer.seconds();
  const double genomes_per_sec =
      sweep_seconds > 0.0 ? static_cast<double>(sweep) / sweep_seconds : 0.0;

  // ---- report ------------------------------------------------------------
  util::AsciiTable tbl({"metric", "value"});
  tbl.add_row({"cold search (s)", util::AsciiTable::num(cold_seconds, 2)});
  tbl.add_row({"memo-on search (s)", util::AsciiTable::num(on_seconds, 2)});
  tbl.add_row({"search speedup", util::AsciiTable::num(speedup, 2)});
  tbl.add_row({"memo hits", std::to_string(on.summary.memo_hits)});
  tbl.add_row({"fronts match", fronts_match ? "yes" : "NO"});
  tbl.add_row({"tabulate 16 genomes (s)",
               util::AsciiTable::num(tabulate_seconds, 2)});
  tbl.add_row({"tabular sweep (genomes/s)",
               util::AsciiTable::num(genomes_per_sec, 0)});
  tbl.add_row({"sweep fit-cache hits",
               std::to_string(sweep_eval.fit_cache_hits())});
  std::printf("%s", tbl.render().c_str());

  util::Json json = util::Json::object();
  json["cold_seconds"] = cold_seconds;
  json["memo_on_seconds"] = on_seconds;
  json["search_speedup"] = speedup;
  json["memo_hits"] = on.summary.memo_hits;
  json["evaluations"] = cold.search.history.size();
  json["fronts_match"] = fronts_match;
  json["tabulate_seconds"] = tabulate_seconds;
  json["tabular_genomes_per_sec"] = genomes_per_sec;
  json["sweep_size"] = sweep;
  json["sweep_failed"] = sweep_failed;
  json["fit_cache_hits"] = sweep_eval.fit_cache_hits();
  util::write_file(args.get("out"), json.dump(2));
  std::printf("wrote %s\n", args.get("out").c_str());

  int violations = fronts_match && sweep_failed == 0 ? 0 : 1;
  if (!args.get("floor").empty())
    violations += bench::floor_violations(
        args.get("floor"), {{"search_speedup", speedup},
                            {"tabular_genomes_per_sec", genomes_per_sec}});
  return violations > 0 ? 2 : 0;
}
