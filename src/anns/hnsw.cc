#include "anns/hnsw.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>

#include "common/check.h"
#include "common/runtime/runtime.h"
#include "common/sync.h"
#include "obs/metrics.h"

namespace ansmet::anns {

namespace {

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
// Visited-set scratch pool
// ---------------------------------------------------------------------

class HnswIndex::ScratchPool
{
  public:
    explicit ScratchPool(std::size_t n) : n_(n) {}

    VisitScratch *
    acquire()
    {
        {
            MutexLock lk(mu_);
            if (!free_.empty()) {
                VisitScratch *s = free_.back();
                free_.pop_back();
                return s;
            }
        }
        auto s = std::make_unique<VisitScratch>();
        s->tag.assign(n_, 0);
        VisitScratch *raw = s.get();
        MutexLock lk(mu_);
        all_.push_back(std::move(s));
        return raw;
    }

    void
    release(VisitScratch *s)
    {
        MutexLock lk(mu_);
        free_.push_back(s);
    }

  private:
    std::size_t n_; //!< immutable after construction
    Mutex mu_;
    std::vector<std::unique_ptr<VisitScratch>> all_ ANSMET_GUARDED_BY(mu_);
    std::vector<VisitScratch *> free_ ANSMET_GUARDED_BY(mu_);
};

class HnswIndex::ScratchLease
{
  public:
    explicit ScratchLease(ScratchPool &pool)
        : pool_(pool), scratch_(pool.acquire())
    {
    }
    ~ScratchLease() { pool_.release(scratch_); }
    ScratchLease(const ScratchLease &) = delete;
    ScratchLease &operator=(const ScratchLease &) = delete;

    VisitScratch &operator*() const { return *scratch_; }

  private:
    ScratchPool &pool_;
    VisitScratch *scratch_;
};

// ---------------------------------------------------------------------
// Construction
// ---------------------------------------------------------------------

HnswIndex::HnswIndex(const VectorSet &vs, Metric m, HnswParams params)
    : vs_(vs), metric_(m), params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(params.m))),
      nodes_(vs.size()),
      scratch_(std::make_unique<ScratchPool>(vs.size()))
{
    ANSMET_CHECK(vs.size() > 0, "empty vector set");
    buildOrdered(drawLevels());
}

// Defined here, where ScratchPool is complete.
HnswIndex::HnswIndex(HnswIndex &&) noexcept = default;
HnswIndex::~HnswIndex() = default;

unsigned
HnswIndex::randomLevel(Prng &rng) const
{
    double u = rng.uniform();
    if (u < 1e-12)
        u = 1e-12;
    const double level = -std::log(u) * level_mult_;
    return static_cast<unsigned>(std::min(level, 31.0));
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

std::size_t
HnswIndex::graphBytes() const
{
    std::size_t bytes = 0;
    for (const auto &n : nodes_)
        for (const auto &l : n.links)
            bytes += l.size() * sizeof(VectorId) + sizeof(std::uint32_t);
    return bytes;
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
HnswIndex::selectNeighbors(const float *q, std::vector<Neighbor> candidates,
                           unsigned m_target) const
{
    (void)q;
    std::sort(candidates.begin(), candidates.end());
    std::vector<VectorId> selected;
    std::vector<Neighbor> discarded;

    // Algorithm 4: keep a candidate only if it is closer to the query
    // than to every already-selected neighbor (diversity pruning).
    for (const Neighbor &c : candidates) {
        if (selected.size() >= m_target)
            break;
        bool keep = true;
        std::vector<float> cbuf = vs_.toFloat(c.id);
        for (const VectorId s : selected) {
            if (distance(metric_, cbuf.data(), vs_, s) < c.dist) {
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
HnswIndex::shrink(VectorId v, unsigned level)
{
    auto &links = nodes_[v].links[level];
    const unsigned cap = params_.maxDegree(level);
    if (links.size() <= cap)
        return;

    std::vector<float> vbuf = vs_.toFloat(v);
    std::vector<Neighbor> cands;
    cands.reserve(links.size());
    for (const VectorId nb : links)
        cands.push_back({distance(metric_, vbuf.data(), vs_, nb), nb});
    links = selectNeighbors(vbuf.data(), std::move(cands), cap);
}

HnswIndex::InsertPlan
HnswIndex::planInsert(VectorId v, unsigned level, VisitScratch &vis) const
{
    std::vector<float> q = vs_.toFloat(v);
    Neighbor ep{dist(q.data(), entry_), entry_};

    // Greedy descent through layers above the insertion level.
    for (unsigned l = max_level_; l > level && l > 0; --l)
        ep = searchLayer(q.data(), ep, 1, l, nullptr, vis).front();

    InsertPlan plan;
    const unsigned top = std::min(level, max_level_);
    plan.selected.resize(top + 1);
    for (int l = static_cast<int>(top); l >= 0; --l) {
        const auto lu = static_cast<unsigned>(l);
        auto found = searchLayer(q.data(), ep, params_.efConstruction, lu,
                                 nullptr, vis);
        ep = found.front();
        plan.selected[lu] = selectNeighbors(q.data(), found, params_.m);
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
            ScratchLease vis(*scratch_);
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
            for (std::size_t i = lo; i < hi; ++i) {
                const auto [b, e] = groups[i];
                const std::uint64_t key = incoming[b].first;
                const auto nb = static_cast<VectorId>(key >> 6);
                const auto l = static_cast<unsigned>(key & 63);
                auto &links = nodes_[nb].links[l];
                for (std::size_t s = b; s < e; ++s)
                    links.push_back(incoming[s].second);
                shrink(nb, l);
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
    return v;
}

} // namespace

HnswIndex::HnswIndex(LoadTag, const VectorSet &vs, Metric m,
                     HnswParams params)
    : vs_(vs), metric_(m), params_(params),
      level_mult_(1.0 / std::log(static_cast<double>(params.m))),
      nodes_(vs.size()),
      scratch_(std::make_unique<ScratchPool>(vs.size()))
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
    HnswIndex idx(LoadTag{}, vs, m, params);
    ANSMET_CHECK(readPod<std::uint32_t>(is) == kGraphMagic,
                 "bad HNSW graph file");
    const auto n = readPod<std::uint64_t>(is);
    ANSMET_CHECK(n == vs.size(), "graph/vector-set size mismatch");
    idx.entry_ = readPod<VectorId>(is);
    idx.max_level_ = readPod<unsigned>(is);
    for (auto &node : idx.nodes_) {
        const auto levels = readPod<std::uint32_t>(is);
        node.links.resize(levels);
        for (auto &l : node.links) {
            const auto deg = readPod<std::uint32_t>(is);
            l.resize(deg);
            is.read(reinterpret_cast<char *>(l.data()),
                    static_cast<std::streamsize>(deg * sizeof(VectorId)));
        }
    }
    ANSMET_CHECK(is.good(), "truncated HNSW graph file");
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

    ScratchLease vis(*scratch_);
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
