// Tabular-mode precompute pass (NAS-Bench-201 style): exhaustively train
// every genome of a small macro search space once, journaling the full
// learning curves into a data commons. The commons then *is* the table —
// CRC-framed, manifest-journaled, resumable mid-sweep — and a
// nas::GenomeTable / nas::TableEvaluator pair serves ablation sweeps from
// it at thousands of genomes per second.
//
//   ./a4nn_tabulate --commons /tmp/table --phases 2 --nodes 2 --epochs 8
//   ./a4nn_tabulate --commons /tmp/table ... --resume   # continue a sweep
#include <cstdio>

#include "core/a4nn.hpp"
#include "nas/table.hpp"
#include "orchestrator/workflow_evaluator.hpp"
#include "tensor/parallel.hpp"
#include "util/args.hpp"
#include "util/shutdown.hpp"
#include "util/timer.hpp"

using namespace a4nn;

namespace {

int run(const util::ArgParser& args) {
  // Every flag is bound before any work starts: a util::ArgError reaches
  // main, which prints usage.
  nas::SearchSpaceConfig space;
  space.phase_count = args.get_size("phases");
  space.nodes_per_phase = args.get_size("nodes");
  const std::size_t pixels = args.get_size("pixels");
  space.input_shape = {1, pixels, pixels};
  const std::size_t max_genomes = args.get_size("max-genomes");
  const std::size_t chunk = std::max<std::size_t>(1, args.get_size("chunk"));
  const std::size_t intra_op_threads = args.get_size("intra-op-threads");
  const std::uint64_t seed = args.get_size("seed");
  xfel::XfelDatasetConfig ds;
  ds.images_per_class = args.get_size("images");
  orchestrator::TrainerConfig trainer;
  trainer.max_epochs = args.get_size("epochs");
  trainer.use_prediction_engine = false;  // tables hold *full* curves
  sched::ClusterConfig cluster_cfg;
  cluster_cfg.num_gpus = args.get_size("gpus");
  trainer.cost = cluster_cfg.cost;
  try {
    ds.intensity = xfel::beam_from_name(args.get("intensity"));
  } catch (const std::invalid_argument& e) {
    throw util::ArgError(e.what());
  }
  if (args.get("commons").empty())
    throw util::ArgError("--commons is required");
  if (intra_op_threads > 0) tensor::set_intra_op_threads(intra_op_threads);

  std::vector<nas::Genome> genomes;
  try {
    genomes = nas::enumerate_space(space, max_genomes);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_tabulate: %s\n", e.what());
    return 1;
  }

  ds.detector.pixels = pixels;
  const xfel::XfelDataset data = xfel::generate_xfel_dataset(ds);
  space.classes = data.train.num_classes();

  lineage::TrackerConfig tracker_cfg;
  tracker_cfg.root = args.get("commons");
  tracker_cfg.snapshot_every = 0;  // the table stores curves, not weights

  const bool resuming = args.get_flag("resume");
  if (resuming && std::filesystem::exists(tracker_cfg.root / "models")) {
    // Quarantine anything torn before trusting stored curves.
    lineage::DataCommons commons(tracker_cfg.root);
    const lineage::FsckReport fsck = commons.fsck(lineage::FsckMode::kDeep);
    if (!fsck.clean())
      std::fprintf(stderr,
                   "a4nn_tabulate: fsck quarantined %zu file(s), repaired "
                   "%zu journal issue(s)\n",
                   fsck.files_quarantined,
                   fsck.integrity.journal_torn_lines +
                       fsck.integrity.missing_files +
                       fsck.integrity.unjournaled_adopted);
  }

  lineage::LineageTracker tracker(tracker_cfg);
  tracker.record_search_config(
      nas::GenomeTable::header_json(space, genomes.size(),
                                    trainer.max_epochs));

  orchestrator::TrainingLoop loop(data.train, data.validation, trainer,
                                  &tracker);
  sched::ResourceManager cluster(cluster_cfg);
  orchestrator::WorkflowEvaluator evaluator(
      loop, cluster, space, seed, &tracker);
  // Seeds must be architecture-keyed: a table entry's identity is its
  // genome, never its position in the enumeration.
  nas::FitnessMemo memo(nas::MemoMode::kCold);
  evaluator.set_memo(&memo);
  if (resuming && std::filesystem::exists(tracker_cfg.root / "models")) {
    lineage::DataCommons commons(tracker_cfg.root);
    evaluator.preload_records(commons.load_records());
  }

  util::install_shutdown_handlers();
  std::printf("a4nn_tabulate: %zu genomes (%zu phases x %zu nodes), "
              "%zu epochs each\n",
              genomes.size(), space.phase_count, space.nodes_per_phase,
              trainer.max_epochs);

  util::Timer wall;
  std::vector<nas::EvaluationRecord> history;
  history.reserve(genomes.size());
  int generation = 0;
  try {
    for (std::size_t start = 0; start < genomes.size(); start += chunk) {
      const std::size_t n = std::min(chunk, genomes.size() - start);
      auto records = evaluator.evaluate_generation(
          std::span<const nas::Genome>(genomes.data() + start, n), generation);
      for (auto& r : records) history.push_back(std::move(r));
      ++generation;
      std::printf("  tabulated %zu/%zu\n", history.size(), genomes.size());
    }
  } catch (const orchestrator::WorkflowInterrupted& e) {
    std::printf("a4nn_tabulate: stopped cleanly (%s); rerun with --resume to "
                "continue\n",
                e.what());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "a4nn_tabulate: %s\n", e.what());
    return 1;
  }

  // Journal the table header + genome index so consumers can validate the
  // sweep (count, space, epoch budget) without re-listing the tree.
  tracker.record_artifact(
      "table.json",
      nas::GenomeTable::header_json(space, genomes.size(),
                                    trainer.max_epochs));
  tracker.record_artifact("memo_index.json", nas::memo_index_json(history));

  std::size_t failed = 0;
  for (const auto& r : history)
    if (r.failed) ++failed;
  std::printf("a4nn_tabulate: %zu genomes tabulated (%zu reused, %zu failed) "
              "in %.1f s -> %s\n",
              history.size(), evaluator.resumed_count(), failed,
              wall.seconds(), tracker_cfg.root.c_str());
  return failed == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParser args("a4nn_tabulate",
                       "Exhaustively evaluate a small search space into a "
                       "genome -> learning-curve table (a journaled, "
                       "resumable data commons)");
  args.add_option("commons", "", "table commons directory (required)");
  args.add_option("phases", "2", "phases in the search space");
  args.add_option("nodes", "2", "nodes per phase");
  args.add_option("epochs", "8", "epochs per genome (full curves, no engine)");
  args.add_option("max-genomes", "4096",
                  "refuse spaces larger than this many genomes");
  args.add_option("chunk", "16", "genomes evaluated per scheduler batch");
  args.add_option("intensity", "medium", "beam intensity: low|medium|high");
  args.add_option("images", "60", "simulated images per conformation class");
  args.add_option("pixels", "8", "detector resolution (pixels per side)");
  args.add_option("gpus", "1", "simulated GPU count");
  args.add_option("seed", "2023", "experiment seed");
  args.add_flag("resume", "skip genomes already tabulated in the commons");
  args.add_option("intra-op-threads", "0",
                  "worker threads per training kernel (0: default)");

  try {
    args.parse(argc, argv);
    if (args.help_requested()) {
      std::printf("%s", args.usage().c_str());
      return 0;
    }
    return run(args);
  } catch (const util::ArgError& e) {
    std::fprintf(stderr, "a4nn_tabulate: %s\n%s", e.what(),
                 args.usage().c_str());
    return 1;
  }
}
