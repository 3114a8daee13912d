#include "anns/hnsw.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/runtime/runtime.h"
#include "obs/metrics.h"

namespace ansmet::anns {

namespace {

/** Highest level randomLevel() draws, so no valid graph goes above it. */
constexpr unsigned kMaxLevel = 31;

struct HnswMetrics
{
    obs::Registry &reg = obs::Registry::instance();
    obs::Counter hops = reg.counter("hnsw.hops");
    obs::Counter distanceComps = reg.counter("hnsw.distance_comps");
};

HnswMetrics &
hnswMetrics()
{
    static HnswMetrics m;
    return m;
}

} // namespace

SearchObserver &
nullObserver()
{
    static SearchObserver obs;
    return obs;
}

// ---------------------------------------------------------------------
// Per-thread visited-set scratch
// ---------------------------------------------------------------------

/**
 * Each thread owns one VisitScratch for its lifetime, grown to the
 * largest index it has searched. Sharing it across indexes is safe
 * because searchLayer() only ever moves the epoch forward: tags left by
 * any earlier search are below the current epoch, so they never read
 * as visited. The in-use flag turns a re-entrant search on one thread,
 * which would reuse the tags mid-search, into a panic.
 */
class HnswIndex::ScratchLease
{
  public:
    explicit ScratchLease(std::size_t n) : s_(threadScratch())
    {
        ANSMET_CHECK(!s_.inUse,
                     "re-entrant HNSW search on one thread (a "
                     "SearchObserver must not call search())");
        s_.inUse = true;
        if (s_.tag.size() < n)
            s_.tag.resize(n, 0);
    }
    ~ScratchLease() { s_.inUse = false; }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    VisitScratch &operator*() const { return s_; }

  private:
    static VisitScratch &
    threadScratch()
    {
        thread_local VisitScratch s;
        return s;
    }

    VisitScratch &s_;
};

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

HnswIndex::HnswIndex(const VectorSet &vs, Metric m, HnswParams params)
    : vs_(vs), metric_(m), params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(params.m))),
      nodes_(vs.size())
{
    ANSMET_CHECK(vs.size() > 0, "empty vector set");
    buildOrdered(drawLevels());
}

unsigned
HnswIndex::randomLevel(Prng &rng) const
{
    double u = rng.uniform();
    if (u < 1e-12)
        u = 1e-12;
    const double level = -std::log(u) * level_mult_;
    return static_cast<unsigned>(
        std::min(level, static_cast<double>(kMaxLevel)));
}

std::vector<unsigned>
HnswIndex::drawLevels() const
{
    // One independent PRNG stream per vertex: the level of a vertex
    // depends only on (seed, id), never on insertion or thread order.
    std::vector<unsigned> levels(vs_.size());
    runtime::parallelFor(0, vs_.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t v = lo; v < hi; ++v) {
            Prng rng = Prng::stream(params_.seed, v);
            levels[v] = randomLevel(rng);
        }
    });
    return levels;
}

const std::vector<VectorId> &
HnswIndex::neighbors(VectorId v, unsigned level) const
{
    ANSMET_CHECK(v < nodes_.size() && level < nodes_[v].links.size());
    return nodes_[v].links[level];
}

std::vector<VectorId>
HnswIndex::verticesAtLevel(unsigned level) const
{
    std::vector<VectorId> out;
    for (std::size_t v = 0; v < nodes_.size(); ++v)
        if (nodes_[v].links.size() > level)
            out.push_back(static_cast<VectorId>(v));
    return out;
}

std::vector<Neighbor>
HnswIndex::searchLayer(const float *q, Neighbor entry, std::size_t ef,
                       unsigned level, SearchObserver *obs,
                       VisitScratch &vis) const
{
    if (++vis.epoch == 0) {
        // Epoch wrapped: old tags could collide with the new epoch.
        std::fill(vis.tag.begin(), vis.tag.end(), 0);
        vis.epoch = 1;
    }
    vis.tag[entry.id] = vis.epoch;

    SearchSet candidates;
    candidates.push(entry);
    ResultSet results(ef);
    results.offer(entry);

    // Accumulated locally and flushed once per call: searchLayer is the
    // inner loop of parallel index build, where per-hop shard traffic
    // would still be visible.
    std::uint64_t hops = 0;
    std::uint64_t comps = 0;

    while (!candidates.empty()) {
        const Neighbor cur = candidates.pop();
        if (cur.dist > results.worst())
            break;
        ++hops;

        const std::vector<VectorId> &links = nodes_[cur.id].links[level];
        if (obs) {
            obs->beginStep(level == 0 ? StepKind::kBaseBeam
                                      : StepKind::kUpperGreedy,
                           links.size() * sizeof(VectorId), cur.id);
            obs->onHeapOps(1); // the pop above
        }

        // The threshold in force when this batch is offloaded: the
        // NDP units reject any neighbor at or beyond it.
        const double batch_threshold = results.worst();

        // Stage the unvisited neighbors, compute their distances in
        // one batched kernel call, then apply the accept decisions in
        // the original order. The threshold is frozen for the whole
        // batch, so decisions match the one-at-a-time loop exactly.
        vis.batchIds.clear();
        for (const VectorId nb : links) {
            if (vis.tag[nb] == vis.epoch)
                continue;
            vis.tag[nb] = vis.epoch;
            vis.batchIds.push_back(nb);
        }
        if (vis.batchIds.empty())
            continue;
        vis.batchDist.resize(vis.batchIds.size());
        distanceBatch(metric_, q, vs_, vis.batchIds.data(),
                      vis.batchIds.size(), vis.batchDist.data());
        comps += vis.batchIds.size();

        for (std::size_t i = 0; i < vis.batchIds.size(); ++i) {
            const VectorId nb = vis.batchIds[i];
            const double d = vis.batchDist[i];
            const bool accepted = d < batch_threshold;
            if (obs)
                obs->onCompare(nb, batch_threshold, d, accepted);

            if (accepted || !results.full()) {
                candidates.push({d, nb});
                results.offer({d, nb});
                if (obs)
                    obs->onHeapOps(2);
            }
        }
    }
    HnswMetrics &m = hnswMetrics();
    m.hops.add(hops);
    m.distanceComps.add(comps);
    return results.sorted();
}

std::vector<VectorId>
HnswIndex::selectNeighbors(std::vector<Neighbor> candidates,
                           unsigned m_target, VisitScratch &s) const
{
    std::sort(candidates.begin(), candidates.end());
    s.cand.resize(vs_.dims());
    std::vector<VectorId> selected;
    std::vector<Neighbor> discarded;

    // Algorithm 4: keep a candidate only if it is closer to the query
    // than to every already-selected neighbor (diversity pruning).
    for (const Neighbor &c : candidates) {
        if (selected.size() >= m_target)
            break;
        bool keep = true;
        vs_.toFloat(c.id, s.cand.data());
        for (const VectorId sel : selected) {
            if (distance(metric_, s.cand.data(), vs_, sel) < c.dist) {
                keep = false;
                break;
            }
        }
        if (keep)
            selected.push_back(c.id);
        else
            discarded.push_back(c);
    }

    // keepPrunedConnections: fill up with the best discarded ones.
    for (const Neighbor &c : discarded) {
        if (selected.size() >= m_target)
            break;
        selected.push_back(c.id);
    }
    return selected;
}

void
HnswIndex::shrink(VectorId v, unsigned level, VisitScratch &s)
{
    auto &links = nodes_[v].links[level];
    const unsigned cap = params_.maxDegree(level);
    if (links.size() <= cap)
        return;

    s.vertex.resize(vs_.dims());
    vs_.toFloat(v, s.vertex.data());
    std::vector<Neighbor> cands;
    cands.reserve(links.size());
    for (const VectorId nb : links)
        cands.push_back({distance(metric_, s.vertex.data(), vs_, nb), nb});
    links = selectNeighbors(std::move(cands), cap, s);
}

HnswIndex::InsertPlan
HnswIndex::planInsert(VectorId v, unsigned level, VisitScratch &vis) const
{
    vis.vertex.resize(vs_.dims());
    vs_.toFloat(v, vis.vertex.data());
    const float *q = vis.vertex.data();
    Neighbor ep{dist(q, entry_), entry_};

    // Greedy descent through layers above the insertion level.
    for (unsigned l = max_level_; l > level && l > 0; --l)
        ep = searchLayer(q, ep, 1, l, nullptr, vis).front();

    InsertPlan plan;
    const unsigned top = std::min(level, max_level_);
    plan.selected.resize(top + 1);
    for (int l = static_cast<int>(top); l >= 0; --l) {
        const auto lu = static_cast<unsigned>(l);
        auto found = searchLayer(q, ep, params_.efConstruction, lu,
                                 nullptr, vis);
        ep = found.front();
        plan.selected[lu] = selectNeighbors(std::move(found), params_.m,
                                            vis);
    }
    return plan;
}

void
HnswIndex::buildOrdered(const std::vector<unsigned> &levels)
{
    const std::size_t n = vs_.size();
    entry_ = 0;
    max_level_ = levels[0];
    nodes_[0].links.resize(levels[0] + 1);

    // Batches double in size: candidate searches within a batch see
    // the graph frozen at batch start (so they parallelize), while the
    // stale window stays proportional to what is already built. The
    // schedule is fixed, so the graph never depends on thread count.
    constexpr std::size_t kMaxBatch = 4096;

    std::size_t done = 1;
    std::vector<InsertPlan> plans;
    while (done < n) {
        const std::size_t batch =
            std::min({n - done, done, kMaxBatch});
        plans.assign(batch, InsertPlan{});

        // Phase A (parallel): pick neighbors against the frozen graph.
        runtime::parallelFor(0, batch, [&](std::size_t lo, std::size_t hi) {
            ScratchLease vis(n);
            for (std::size_t i = lo; i < hi; ++i) {
                const auto v = static_cast<VectorId>(done + i);
                plans[i] = planInsert(v, levels[v], *vis);
            }
        });

        // Phase B1 (parallel): each vertex writes its own adjacency.
        runtime::parallelFor(0, batch, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i) {
                const auto v = static_cast<VectorId>(done + i);
                nodes_[v].links.resize(levels[v] + 1);
                for (std::size_t l = 0; l < plans[i].selected.size(); ++l)
                    nodes_[v].links[l] = plans[i].selected[l];
            }
        });

        // Group the back-edges by (target, level) with a stable sort
        // over a flat (key, src) vector: per-key source runs keep
        // their insertion order, so the appended runs — and the shrink
        // decisions they feed — are schedule-independent, and the key
        // walk itself is sorted (an unordered_map here would hand the
        // keys out in hash-bucket order).
        std::vector<std::pair<std::uint64_t, VectorId>> incoming;
        for (std::size_t i = 0; i < batch; ++i) {
            const auto v = static_cast<VectorId>(done + i);
            for (std::size_t l = 0; l < plans[i].selected.size(); ++l) {
                for (const VectorId nb : plans[i].selected[l]) {
                    incoming.emplace_back(
                        (static_cast<std::uint64_t>(nb) << 6) | l, v);
                }
            }
        }
        std::stable_sort(incoming.begin(), incoming.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
        std::vector<std::pair<std::size_t, std::size_t>> groups;
        for (std::size_t i = 0; i < incoming.size();) {
            std::size_t j = i + 1;
            while (j < incoming.size() &&
                   incoming[j].first == incoming[i].first)
                ++j;
            groups.emplace_back(i, j);
            i = j;
        }

        // Phase B2 (parallel): targets are distinct across keys, so
        // each append + shrink touches exactly one neighbor list.
        runtime::parallelFor(0, groups.size(), [&](std::size_t lo, std::size_t hi) {
            ScratchLease vis(n);
            for (std::size_t i = lo; i < hi; ++i) {
                const auto [b, e] = groups[i];
                const std::uint64_t key = incoming[b].first;
                const auto nb = static_cast<VectorId>(key >> 6);
                const auto l = static_cast<unsigned>(key & 63);
                auto &links = nodes_[nb].links[l];
                for (std::size_t s = b; s < e; ++s)
                    links.push_back(incoming[s].second);
                shrink(nb, l, *vis);
            }
        });

        // Entry-point handoff in insertion order, as serial HNSW does.
        for (std::size_t i = 0; i < batch; ++i) {
            const auto v = static_cast<VectorId>(done + i);
            if (levels[v] > max_level_) {
                max_level_ = levels[v];
                entry_ = v;
            }
        }
        done += batch;
    }
}

// ---------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------

namespace {

constexpr std::uint32_t kGraphMagic = 0x414e5347; // "ANSG"

template <typename T>
void
writePod(std::ostream &os, const T &v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

template <typename T>
T
readPod(std::istream &is)
{
    T v{};
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    ANSMET_CHECK(is.good(), "truncated HNSW graph file");
    return v;
}

} // namespace

HnswIndex::HnswIndex(LoadTag, const VectorSet &vs, Metric m,
                     HnswParams params)
    : vs_(vs), metric_(m), params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(params.m))),
      nodes_(vs.size())
{
}

void
HnswIndex::save(std::ostream &os) const
{
    writePod(os, kGraphMagic);
    writePod(os, static_cast<std::uint64_t>(nodes_.size()));
    writePod(os, entry_);
    writePod(os, max_level_);
    for (const auto &n : nodes_) {
        writePod(os, static_cast<std::uint32_t>(n.links.size()));
        for (const auto &l : n.links) {
            writePod(os, static_cast<std::uint32_t>(l.size()));
            os.write(reinterpret_cast<const char *>(l.data()),
                     static_cast<std::streamsize>(l.size() *
                                                  sizeof(VectorId)));
        }
    }
}

HnswIndex
HnswIndex::load(std::istream &is, const VectorSet &vs, Metric m,
                HnswParams params)
{
    // Every count is checked before anything is sized from it, so a
    // corrupt cache file panics instead of allocating or indexing
    // out of range.
    HnswIndex idx(LoadTag{}, vs, m, params);
    ANSMET_CHECK(readPod<std::uint32_t>(is) == kGraphMagic,
                 "bad HNSW graph file");
    const auto n = readPod<std::uint64_t>(is);
    ANSMET_CHECK(n == vs.size(), "graph/vector-set size mismatch");
    idx.entry_ = readPod<VectorId>(is);
    ANSMET_CHECK(idx.entry_ < n, "bad HNSW graph file: entry point ",
                 idx.entry_, " of ", n, " vertices");
    idx.max_level_ = readPod<unsigned>(is);
    ANSMET_CHECK(idx.max_level_ <= kMaxLevel,
                 "bad HNSW graph file: top level ", idx.max_level_);
    for (VectorId v = 0; v < n; ++v) {
        auto &links = idx.nodes_[v].links;
        const auto levels = readPod<std::uint32_t>(is);
        ANSMET_CHECK(levels >= 1 && levels <= idx.max_level_ + 1,
                     "bad HNSW graph file: vertex ", v, " has ", levels,
                     " levels");
        links.resize(levels);
        for (unsigned l = 0; l < levels; ++l) {
            const auto deg = readPod<std::uint32_t>(is);
            ANSMET_CHECK(deg <= params.maxDegree(l),
                         "bad HNSW graph file: vertex ", v, " has degree ",
                         deg, " at level ", l);
            links[l].resize(deg);
            is.read(reinterpret_cast<char *>(links[l].data()),
                    static_cast<std::streamsize>(deg * sizeof(VectorId)));
            ANSMET_CHECK(is.good(), "truncated HNSW graph file");
            for (const VectorId nb : links[l]) {
                ANSMET_CHECK(nb < n && nb != v,
                             "bad HNSW graph file: vertex ", v,
                             " has neighbor ", nb);
            }
        }
    }
    ANSMET_CHECK(is.peek() == std::istream::traits_type::eof(),
                 "bad HNSW graph file: trailing bytes");
    ANSMET_CHECK(idx.levelOf(idx.entry_) == idx.max_level_,
                 "bad HNSW graph file: entry point not on the top level");
    // Search reads links[l] of every vertex an edge at level l reaches.
    for (VectorId v = 0; v < n; ++v) {
        for (unsigned l = 0; l <= idx.levelOf(v); ++l) {
            for (const VectorId nb : idx.nodes_[v].links[l]) {
                ANSMET_CHECK(idx.levelOf(nb) >= l,
                             "bad HNSW graph file: level-", l, " edge ", v,
                             " -> ", nb, " leaves the level");
            }
        }
    }
    return idx;
}

// ---------------------------------------------------------------------
// Search
// ---------------------------------------------------------------------

std::vector<VectorId>
HnswIndex::search(const float *query, std::size_t k, std::size_t ef,
                  SearchObserver &obs) const
{
    ANSMET_CHECK(ef >= k, "efSearch must be >= k");

    ScratchLease vis(nodes_.size());
    Neighbor ep{dist(query, entry_), entry_};
    obs.beginStep(StepKind::kUpperGreedy, sizeof(VectorId), entry_);
    obs.onCompare(ep.id, std::numeric_limits<double>::infinity(), ep.dist,
                  true);

    for (unsigned l = max_level_; l > 0; --l)
        ep = searchLayer(query, ep, 1, l, &obs, *vis).front();

    const auto found = searchLayer(query, ep, ef, 0, &obs, *vis);
    std::vector<VectorId> out;
    out.reserve(std::min(k, found.size()));
    for (std::size_t i = 0; i < found.size() && i < k; ++i)
        out.push_back(found[i].id);
    return out;
}

} // namespace ansmet::anns
