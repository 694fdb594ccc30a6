/**
 * @file
 * Cross-session batched DNN scoring (the paper's Sec. III-A insight
 * applied to serving): GEMM efficiency on a throughput device comes
 * from batch size, so instead of every session running its own
 * one-row forward per frame, the scheduler's batch mode coalesces
 * the pending spliced frames of *all* active sessions into a single
 * forward pass per tick.  The acoustic::Backend's row-wise
 * bit-identity contract makes this free of numeric consequences on
 * the float paths: each session's scores are bit-identical to inline
 * per-frame scoring no matter how frames are coalesced.
 *
 * Threading: one BatchScorer is driven by the engine's coordinator
 * between the parallel advance/consume stages.  The coordinator
 * gathers the batch, then the forward pass itself runs through a
 * caller-supplied parallel-for as one contiguous row slab per
 * participant (acoustic::Backend::scoreRows), each slab running the
 * whole network over its rows into its own rows of the shared score
 * matrix with its own activation scratch.  Splitting by rows needs
 * no barrier between layers and is exact for every backend (row r
 * depends only on input row r; int8 quantises per row), so results
 * are bit-identical for any slab count.  Sessions read their score
 * rows back concurrently via consumePendingScores (disjoint rows of
 * the then-immutable result).
 */

#ifndef ASR_SERVER_BATCH_SCORER_HH
#define ASR_SERVER_BATCH_SCORER_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "acoustic/backend.hh"
#include "acoustic/matrix.hh"
#include "pipeline/model.hh"
#include "server/session.hh"

namespace asr::server {

/** Assembles, scores and scatters one cross-session batch per tick. */
class BatchScorer
{
  public:
    /**
     * Runs fn(0..count-1), possibly concurrently, and returns once
     * every call has finished (api::Engine passes its stage barrier).
     */
    using ParallelFor = std::function<void(
        std::size_t count, const std::function<void(std::size_t)> &fn)>;

    /**
     * @p max_slabs is the most row slabs one forward pass is split
     * into -- the number of threads the caller's parallel-for runs
     * on.  One activation scratch per slab lives as long as the
     * scorer, so steady-state ticks allocate nothing.
     */
    explicit BatchScorer(const pipeline::AsrModel &model,
                         std::size_t max_slabs = 1);

    /**
     * Gather every pending spliced frame of @p sessions into one
     * batch matrix and run a single backend forward pass over it,
     * split into min(max_slabs, rows) row slabs dispatched through
     * @p parallel (run in order on the calling thread when empty).
     * Null entries (sessions retired mid-tick, e.g. a cancelled live
     * stream that never got one) contribute zero rows.
     * @return total frames scored this tick (0 = no forward ran)
     */
    std::size_t score(std::span<StreamingSession *const> sessions,
                      const ParallelFor &parallel = {});

    /** Log-softmax scores of the last tick (rows match the gather). */
    const acoustic::Matrix &scores() const { return scores_; }

    /** Row offset of sessions[i]'s frames within scores(). */
    std::size_t base(std::size_t i) const { return bases_[i]; }

    /**
     * sessions[i]'s share of the last forward's wall-clock
     * (proportional to its row count) for per-session accounting.
     */
    double secondsShare(std::size_t i) const;

    /**
     * Wall-clock of the last batched forward pass, gather through the
     * last slab's return: with several slabs this is the parallel
     * pass's wall time, not the CPU time summed over threads.
     */
    double lastForwardSeconds() const { return forwardSeconds; }

  private:
    const pipeline::AsrModel &model;
    acoustic::Matrix input_;
    acoustic::Matrix scores_;
    std::vector<acoustic::FrameScratch> scratch_;  //!< one per slab
    std::vector<std::size_t> bases_;
    std::vector<std::size_t> rows_;
    std::size_t totalRows = 0;
    double forwardSeconds = 0.0;
};

} // namespace asr::server

#endif // ASR_SERVER_BATCH_SCORER_HH
