#include "server/batch_scorer.hh"

#include <algorithm>
#include <chrono>

#include "common/logging.hh"
#include "common/units.hh"

namespace asr::server {

BatchScorer::BatchScorer(const pipeline::AsrModel &model,
                         std::size_t max_slabs)
    : model(model), scratch_(std::max<std::size_t>(1, max_slabs))
{
}

std::size_t
BatchScorer::score(std::span<StreamingSession *const> sessions,
                   const ParallelFor &parallel)
{
    bases_.resize(sessions.size());
    rows_.resize(sessions.size());
    totalRows = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        bases_[i] = totalRows;
        rows_[i] = sessions[i] ? sessions[i]->pendingRows() : 0;
        totalRows += rows_[i];
    }
    forwardSeconds = 0.0;
    if (totalRows == 0)
        return 0;

    const auto t0 = std::chrono::steady_clock::now();
    const acoustic::Backend &backend = model.backend();
    input_.resize(totalRows, backend.inputDim());
    scores_.resize(totalRows, backend.outputDim());
    for (std::size_t i = 0; i < sessions.size(); ++i)
        if (rows_[i] > 0)
            sessions[i]->exportPending(input_, bases_[i]);

    // Balanced contiguous slabs: slab s owns rows [r0, r1) of both
    // matrices and scratch_[s], so concurrent slabs share nothing
    // mutable.
    const std::size_t slabs = std::min(scratch_.size(), totalRows);
    const std::function<void(std::size_t)> slab =
        [this, &backend, slabs](std::size_t s) {
            const std::size_t r0 = totalRows * s / slabs;
            const std::size_t r1 = totalRows * (s + 1) / slabs;
            backend.scoreRows(input_, r0, r1, scores_, scratch_[s]);
        };
    if (parallel)
        parallel(slabs, slab);
    else
        for (std::size_t s = 0; s < slabs; ++s)
            slab(s);
    forwardSeconds = secondsSince(t0);
    return totalRows;
}

double
BatchScorer::secondsShare(std::size_t i) const
{
    ASR_ASSERT(i < rows_.size(), "session index out of range");
    return totalRows > 0
               ? forwardSeconds * double(rows_[i]) / double(totalRows)
               : 0.0;
}

} // namespace asr::server
