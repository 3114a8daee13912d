/**
 * @file
 * Functional search traces.
 *
 * Lossless early termination never changes which vectors are accepted,
 * so the search path — which vectors are compared, in what batches,
 * under what thresholds — is identical across every evaluated design.
 * We therefore run the functional HNSW/IVF search once per query,
 * capture it as a QueryTrace, and replay that trace through each
 * design's timing model (see DESIGN.md, "trace-then-replay").
 */

#ifndef ANSMET_CORE_TRACE_H
#define ANSMET_CORE_TRACE_H

#include <vector>

#include "anns/hnsw.h"
#include "anns/ivf.h"
#include "anns/observer.h"
#include "common/check.h"

namespace ansmet::core {

/** One distance comparison as issued by the host. */
struct CompareTask
{
    VectorId vec;
    double threshold; //!< result-set bound at batch issue (+inf early)
    double dist;      //!< exact distance
    bool accepted;    //!< dist < threshold
};

/** One traversal step: a popped vertex / cluster chunk and its batch. */
struct TraceStep
{
    anns::StepKind kind;
    std::size_t indexBytes = 0;  //!< adjacency / posting list read
    std::uint64_t ident = 0;     //!< popped vertex / cluster id
    unsigned heapOps = 0;
    std::vector<CompareTask> tasks;
};

/** A full query's worth of steps plus the functional result. */
struct QueryTrace
{
    std::vector<float> query;
    std::vector<TraceStep> steps;
    std::vector<VectorId> result;

    std::size_t
    numComparisons() const
    {
        std::size_t n = 0;
        for (const auto &s : steps)
            n += s.tasks.size();
        return n;
    }

    std::size_t
    numAccepted() const
    {
        std::size_t n = 0;
        for (const auto &s : steps)
            for (const auto &t : s.tasks)
                n += t.accepted ? 1 : 0;
        return n;
    }
};

/** SearchObserver that materializes a QueryTrace. */
class TraceBuilder : public anns::SearchObserver
{
  public:
    explicit TraceBuilder(QueryTrace &out) : out_(out) {}

    void
    beginStep(anns::StepKind kind, std::size_t index_bytes,
              std::uint64_t ident) override
    {
        out_.steps.push_back(TraceStep{kind, index_bytes, ident, 0, {}});
    }

    void
    onCompare(VectorId v, double threshold, double dist,
              bool accepted) override
    {
        ANSMET_CHECK(!out_.steps.empty());
        out_.steps.back().tasks.push_back(
            CompareTask{v, threshold, dist, accepted});
    }

    void
    onHeapOps(unsigned n) override
    {
        if (!out_.steps.empty())
            out_.steps.back().heapOps += n;
    }

  private:
    QueryTrace &out_;
};

/** Trace one HNSW query. */
QueryTrace traceHnswQuery(const anns::HnswIndex &index,
                          const std::vector<float> &query, std::size_t k,
                          std::size_t ef);

/** Trace one IVF query. */
QueryTrace traceIvfQuery(const anns::IvfIndex &index,
                         const std::vector<float> &query, std::size_t k,
                         unsigned nprobe);

} // namespace ansmet::core

#endif // ANSMET_CORE_TRACE_H
