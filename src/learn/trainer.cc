#include "learn/trainer.h"

#include <optional>
#include <vector>

#include "featurize/features.h"
#include "learn/candidates.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace unidetect {

void AddTableObservations(const Table& table, const TokenIndex& index,
                          const ModelOptions& options, size_t max_fd_pairs,
                          Model* out) {
  // One single-layer view up front; the key featurizers take the layered
  // TokenPrevalence interface (serving queries stacks, training always
  // featurizes against one full-corpus index).
  const TokenPrevalence index_view(index);

  // Prev(C) per column, computed on first use: the uniqueness key and
  // every FD key with the column as rhs share it. Keys ignore it when
  // featurization is off, so it is not computed then.
  std::vector<std::optional<double>> prevalence(table.num_columns());
  const auto prevalence_of = [&](size_t c) {
    if (!options.featurize.enabled) return 0.0;
    if (!prevalence[c]) {
      prevalence[c] = index_view.AveragePrevalence(table.column(c));
    }
    return *prevalence[c];
  };

  // Column-level classes.
  for (size_t c = 0; c < table.num_columns(); ++c) {
    const Column& column = table.column(c);

    const OutlierCandidate outlier = ExtractOutlierCandidate(column, options);
    if (outlier.valid) {
      out->AddObservation(outlier.key, outlier.theta1, outlier.theta2);
    }

    const SpellingCandidate spelling =
        ExtractSpellingCandidate(column, options);
    if (spelling.valid) {
      out->AddObservation(spelling.key, spelling.theta1, spelling.theta2);
    }

    const UniquenessCandidate uniqueness =
        ExtractUniquenessCandidate(column, options);
    if (uniqueness.valid) {
      out->AddObservation(UniquenessFeatures(column, c, prevalence_of(c),
                                             options.featurize),
                          uniqueness.theta1, uniqueness.theta2);
    }
  }

  // FD pairs (ordered, distinct columns).
  size_t pairs = 0;
  for (size_t l = 0; l < table.num_columns() && pairs < max_fd_pairs; ++l) {
    for (size_t r = 0; r < table.num_columns() && pairs < max_fd_pairs; ++r) {
      if (l == r) continue;
      ++pairs;
      const Column& lhs = table.column(l);
      const Column& rhs = table.column(r);
      const FdCandidate fd = ExtractFdCandidate(lhs, rhs, options);
      if (fd.valid) {
        out->AddObservation(
            FdFeatures(lhs, rhs, prevalence_of(r), options.featurize),
            fd.theta1, fd.theta2);
      }
    }
  }
  // Each corpus table is visited once: free its columns' caches now
  // rather than keep them for the corpus's lifetime.
  for (const Column& column : table.columns()) column.ReleaseCaches();
}

Model Trainer::Train(const Corpus& corpus) const {
  ThreadPool pool(options_.num_threads);
  const size_t n = corpus.tables.size();

  // Both passes reduce per-thread *partial models* with Model::Merge —
  // the same associative/commutative fold the offline shard pipeline
  // (src/offline/) applies to persisted shard snapshots, so the two
  // paths cannot drift.

  // Pass 1: token prevalence + pattern co-occurrence indexes.
  UNIDETECT_LOG(Info) << "training pass 1 (token index) over " << n
                      << " tables, " << pool.num_threads() << " threads";
  std::vector<Model> index_partials;
  index_partials.reserve(pool.num_threads());
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    index_partials.emplace_back(options_.model);
  }
  ParallelFor(pool, n, [&](size_t shard, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      index_partials[shard].mutable_token_index()->AddTable(corpus.tables[i]);
      index_partials[shard].mutable_pattern_index()->AddTable(
          corpus.tables[i]);
    }
  });
  Model model(options_.model);
  for (const Model& partial : index_partials) model.Merge(partial);

  // Pass 2: per-class observations against the full merged index.
  UNIDETECT_LOG(Info) << "training pass 2 (metric observations)";
  std::vector<Model> obs_partials;
  obs_partials.reserve(pool.num_threads());
  for (size_t i = 0; i < pool.num_threads(); ++i) {
    obs_partials.emplace_back(options_.model);
  }
  const TokenIndex& index = model.token_index();
  ParallelFor(pool, n, [&](size_t shard, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      AddTableObservations(corpus.tables[i], index, options_.model,
                           options_.max_fd_pairs_per_table,
                           &obs_partials[shard]);
    }
  });
  for (const Model& partial : obs_partials) model.Merge(partial);

  model.Finalize();
  UNIDETECT_LOG(Info) << "trained model: " << model.num_subsets()
                      << " subsets, " << model.num_observations()
                      << " observations, " << model.token_index().num_tokens()
                      << " tokens";
  return model;
}

}  // namespace unidetect
