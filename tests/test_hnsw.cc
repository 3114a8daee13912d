/**
 * @file
 * HNSW index tests: structural invariants, search quality against
 * brute force, observer/trace behavior, serialization (and rejection
 * of corrupt graph files), determinism, and concurrent search over
 * per-thread visited-set scratch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "anns/hnsw.h"
#include "common/runtime/runtime.h"
#include "core/trace.h"

namespace ansmet::anns {
namespace {

const Dataset &
sift()
{
    static const Dataset ds = makeDataset(DatasetId::kSift, 2000, 30, 1);
    return ds;
}

const HnswIndex &
siftIndex()
{
    static const HnswIndex idx(*sift().base, Metric::kL2,
                               HnswParams{16, 100, 42});
    return idx;
}

TEST(Hnsw, DegreesRespectCaps)
{
    const auto &idx = siftIndex();
    const HnswParams params{16, 100, 42};
    for (VectorId v = 0; v < 2000; ++v) {
        for (unsigned l = 0; l <= idx.levelOf(v); ++l) {
            EXPECT_LE(idx.neighbors(v, l).size(), params.maxDegree(l))
                << "v=" << v << " level=" << l;
        }
    }
}

TEST(Hnsw, NeighborsAreValidAndDistinctFromSelf)
{
    const auto &idx = siftIndex();
    for (VectorId v = 0; v < 2000; ++v) {
        for (unsigned l = 0; l <= idx.levelOf(v); ++l) {
            for (const VectorId nb : idx.neighbors(v, l)) {
                EXPECT_LT(nb, 2000u);
                EXPECT_NE(nb, v);
                // The neighbor must exist at this level too.
                EXPECT_GE(idx.levelOf(nb), l);
            }
        }
    }
}

TEST(Hnsw, UpperLayersShrink)
{
    const auto &idx = siftIndex();
    std::size_t prev = idx.verticesAtLevel(0).size();
    EXPECT_EQ(prev, 2000u);
    for (unsigned l = 1; l <= idx.maxLevel(); ++l) {
        const std::size_t count = idx.verticesAtLevel(l).size();
        EXPECT_LE(count, prev);
        prev = count;
    }
    EXPECT_GE(idx.levelOf(idx.entryPoint()), idx.maxLevel());
}

TEST(Hnsw, RecallBeatsTarget)
{
    const auto &ds = sift();
    const auto &idx = siftIndex();
    const auto gt = bruteForceAll(Metric::kL2, ds.queries, *ds.base, 10);

    double total = 0.0;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
        const auto ids = idx.search(ds.queries[q].data(), 10, 100);
        total += recallAtK(ids, gt[q], 10);
    }
    EXPECT_GE(total / static_cast<double>(ds.queries.size()), 0.85);
}

TEST(Hnsw, LargerEfImprovesRecall)
{
    const auto &ds = sift();
    const auto &idx = siftIndex();
    const auto gt = bruteForceAll(Metric::kL2, ds.queries, *ds.base, 10);

    auto recall_at = [&](std::size_t ef) {
        double total = 0.0;
        for (std::size_t q = 0; q < ds.queries.size(); ++q) {
            total += recallAtK(idx.search(ds.queries[q].data(), 10, ef),
                               gt[q], 10);
        }
        return total / static_cast<double>(ds.queries.size());
    };
    EXPECT_GE(recall_at(200) + 1e-9, recall_at(10));
}

TEST(Hnsw, ResultsSortedByDistance)
{
    const auto &ds = sift();
    const auto &idx = siftIndex();
    const auto &q = ds.queries[0];
    const auto ids = idx.search(q.data(), 10, 64);
    ASSERT_GE(ids.size(), 2u);
    double prev = -1.0;
    for (const VectorId id : ids) {
        const double d = distance(Metric::kL2, q.data(), *ds.base, id);
        EXPECT_GE(d, prev);
        prev = d;
    }
}

TEST(Hnsw, DeterministicAcrossBuilds)
{
    const auto &ds = sift();
    const HnswIndex a(*ds.base, Metric::kL2, HnswParams{8, 50, 7});
    const HnswIndex b(*ds.base, Metric::kL2, HnswParams{8, 50, 7});
    EXPECT_EQ(a.entryPoint(), b.entryPoint());
    EXPECT_EQ(a.maxLevel(), b.maxLevel());
    for (VectorId v = 0; v < 2000; v += 97)
        EXPECT_EQ(a.neighbors(v, 0), b.neighbors(v, 0));
}

TEST(Hnsw, SaveLoadRoundTrip)
{
    const auto &ds = sift();
    const auto &idx = siftIndex();

    std::stringstream ss;
    idx.save(ss);
    const HnswIndex loaded =
        HnswIndex::load(ss, *ds.base, Metric::kL2, HnswParams{16, 100, 42});

    EXPECT_EQ(loaded.entryPoint(), idx.entryPoint());
    EXPECT_EQ(loaded.maxLevel(), idx.maxLevel());
    for (VectorId v = 0; v < 2000; v += 31) {
        ASSERT_EQ(loaded.levelOf(v), idx.levelOf(v));
        for (unsigned l = 0; l <= idx.levelOf(v); ++l)
            EXPECT_EQ(loaded.neighbors(v, l), idx.neighbors(v, l));
    }

    // Same search behavior.
    const auto &q = ds.queries[0];
    EXPECT_EQ(loaded.search(q.data(), 10, 64), idx.search(q.data(), 10, 64));
}

/**
 * 1,200 vectors of @p type around twelve centers, drawn from Prng
 * alone: no libm call, so the set does not depend on the math library.
 */
VectorSet
pinnedSet(ScalarType type)
{
    constexpr std::size_t kN = 1200;
    constexpr unsigned kDims = 24;
    constexpr std::size_t kCenters = 12;
    const double lo = type == ScalarType::kUint8 ? 0.0
                      : type == ScalarType::kInt8 ? -128.0 : -1.0;
    const double hi = type == ScalarType::kUint8 ? 255.0
                      : type == ScalarType::kInt8 ? 127.0 : 1.0;
    const double noise = (hi - lo) / 16.0;

    Prng rng(0x9a11 + static_cast<std::uint64_t>(type));
    std::vector<double> centers(kCenters * kDims);
    for (double &c : centers)
        c = rng.uniform(lo + noise, hi - noise);
    VectorSet vs(kN, kDims, type);
    for (VectorId v = 0; v < kN; ++v) {
        const std::size_t c = rng.below(kCenters);
        for (unsigned d = 0; d < kDims; ++d) {
            vs.set(v, d, static_cast<float>(centers[c * kDims + d] +
                                            rng.uniform(-noise, noise)));
        }
    }
    return vs;
}

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Hnsw, GraphBytesArePinnedPerScalarType)
{
    // Hashes of the bytes save() writes, recorded at commit 2e9c2db,
    // before the build decoded into per-thread scratch: a build change
    // that claims to keep every graph must keep these. The level draw
    // calls std::log, so, like the golden figures, they are pinned to
    // the toolchain.
    const std::pair<ScalarType, std::uint64_t> pinned[] = {
        {ScalarType::kUint8, 0x3b84ef14b8f3db75ull},
        {ScalarType::kInt8, 0xb9e83570da110844ull},
        {ScalarType::kFp16, 0x09aca5b8e5abea07ull},
        {ScalarType::kFp32, 0x606d9240dd8e8f64ull},
    };
    for (const auto &[type, hash] : pinned) {
        const VectorSet vs = pinnedSet(type);
        const HnswIndex idx(vs, Metric::kL2, HnswParams{8, 40, 42});
        std::ostringstream os;
        idx.save(os);
        EXPECT_EQ(fnv1a(os.str()), hash)
            << scalarName(type) << ": got 0x" << std::hex
            << fnv1a(os.str());
    }
}

/** A 300-vector graph and its bytes as save() writes them. */
struct SavedGraph
{
    Dataset ds = makeDataset(DatasetId::kSift, 300, 1, 3);
    HnswParams params{8, 40, 42};
    HnswIndex idx{*ds.base, Metric::kL2, params};
    std::string bytes;

    SavedGraph()
    {
        std::ostringstream os;
        idx.save(os);
        bytes = os.str();
    }

    void
    load(const std::string &b) const
    {
        std::istringstream is(b);
        (void)HnswIndex::load(is, *ds.base, Metric::kL2, params);
    }
};

// save() layout: magic @0, vertex count (u64) @4, entry point @12, top
// level @16, then per vertex its level count and, per level, the degree
// followed by the neighbor ids (all 32-bit).
constexpr std::size_t kEntryAt = 12;
constexpr std::size_t kTopLevelAt = 16;
constexpr std::size_t kVerticesAt = 20;

/** Byte offset of vertex @p u's first level-@p l neighbor. */
std::size_t
neighborAt(const HnswIndex &idx, VectorId u, unsigned l)
{
    std::size_t at = kVerticesAt;
    for (VectorId w = 0; w < u; ++w) {
        at += 4;
        for (unsigned k = 0; k <= idx.levelOf(w); ++k)
            at += 4 + 4 * idx.neighbors(w, k).size();
    }
    at += 4;
    for (unsigned k = 0; k < l; ++k)
        at += 4 + 4 * idx.neighbors(u, k).size();
    return at + 4;
}

/** The lowest vertex of @p idx satisfying @p pred (test fails if none). */
template <typename Pred>
VectorId
firstVertex(const HnswIndex &idx, Pred pred)
{
    for (VectorId v = 0; v < idx.vectors().size(); ++v) {
        if (pred(v))
            return v;
    }
    ADD_FAILURE() << "no vertex qualifies";
    return 0;
}

/** @p bytes with the 32-bit word at @p offset replaced by @p v. */
std::string
patched(std::string bytes, std::size_t offset, std::uint32_t v)
{
    std::memcpy(bytes.data() + offset, &v, sizeof v);
    return bytes;
}

TEST(HnswDeathTest, LoadRejectsTruncatedFile)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const SavedGraph g;
    EXPECT_DEATH(g.load(g.bytes.substr(0, g.bytes.size() - 3)),
                 "truncated HNSW graph file");
    EXPECT_DEATH(g.load(g.bytes.substr(0, 14)), "truncated HNSW graph file");
    EXPECT_DEATH(g.load(g.bytes + '\0'), "bad HNSW graph file: trailing");
}

TEST(HnswDeathTest, LoadRejectsBadEntryPoint)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const SavedGraph g;
    EXPECT_DEATH(g.load(patched(g.bytes, kEntryAt, 1u << 30)),
                 "bad HNSW graph file: entry point 1073741824 of 300");
    const VectorId low = firstVertex(g.idx, [&](VectorId v) {
        return g.idx.levelOf(v) < g.idx.maxLevel();
    });
    EXPECT_DEATH(g.load(patched(g.bytes, kEntryAt, low)),
                 "bad HNSW graph file: entry point not on the top level");
}

TEST(HnswDeathTest, LoadRejectsOversizedCounts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const SavedGraph g;
    EXPECT_DEATH(g.load(patched(g.bytes, kVerticesAt, 0xfffffff0u)),
                 "bad HNSW graph file: vertex 0 has 4294967280 levels");
    EXPECT_DEATH(g.load(patched(g.bytes, kTopLevelAt, 0xfffffff0u)),
                 "bad HNSW graph file: top level");
    EXPECT_DEATH(g.load(patched(g.bytes, kVerticesAt + 4,
                                g.params.maxDegree(0) + 1)),
                 "bad HNSW graph file: vertex 0 has degree 17 at level 0");
}

TEST(HnswDeathTest, LoadRejectsOutOfRangeNeighbor)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const SavedGraph g;
    ASSERT_FALSE(g.idx.neighbors(0, 0).empty());
    const std::size_t first = neighborAt(g.idx, 0, 0);
    EXPECT_DEATH(g.load(patched(g.bytes, first, 300)),
                 "bad HNSW graph file: vertex 0 has neighbor 300");
    EXPECT_DEATH(g.load(patched(g.bytes, first, 0)),
                 "bad HNSW graph file: vertex 0 has neighbor 0");

    // A level-1 edge to a vertex that has no level 1.
    const VectorId u = firstVertex(g.idx, [&](VectorId v) {
        return g.idx.levelOf(v) > 0 && !g.idx.neighbors(v, 1).empty();
    });
    const VectorId base_only = firstVertex(
        g.idx, [&](VectorId v) { return g.idx.levelOf(v) == 0; });
    EXPECT_DEATH(g.load(patched(g.bytes, neighborAt(g.idx, u, 1),
                                base_only)),
                 "bad HNSW graph file: level-1 edge .* leaves the level");
}

TEST(Hnsw, TraceMatchesSearch)
{
    const auto &ds = sift();
    const auto &idx = siftIndex();

    const auto trace =
        core::traceHnswQuery(idx, ds.queries[1], 10, 64);
    EXPECT_EQ(trace.result, idx.search(ds.queries[1].data(), 10, 64));
    EXPECT_GT(trace.steps.size(), 1u);
    EXPECT_GT(trace.numComparisons(), 10u);
    EXPECT_GE(trace.numComparisons(), trace.numAccepted());

    // Every recorded comparison must be exact and self-consistent.
    for (const auto &step : trace.steps) {
        for (const auto &t : step.tasks) {
            const double d = distance(Metric::kL2, ds.queries[1].data(),
                                      *ds.base, t.vec);
            EXPECT_DOUBLE_EQ(d, t.dist);
            EXPECT_EQ(t.accepted, t.dist < t.threshold);
        }
    }
}

TEST(Hnsw, MostComparisonsAreRejectedOnConvergedSearch)
{
    // Figure 1's observation: 50%+ of comparisons are beyond the
    // threshold once the result set converges.
    const auto &ds = sift();
    const auto &idx = siftIndex();
    std::size_t total = 0, accepted = 0;
    for (const auto &q : ds.queries) {
        const auto trace = core::traceHnswQuery(idx, q, 10, 128);
        total += trace.numComparisons();
        accepted += trace.numAccepted();
    }
    EXPECT_LT(static_cast<double>(accepted),
              0.6 * static_cast<double>(total));
}

TEST(Hnsw, IpMetricSearchWorks)
{
    const auto ds = makeDataset(DatasetId::kGlove, 1500, 10, 3);
    const HnswIndex idx(*ds.base, Metric::kIp, HnswParams{16, 100, 42});
    const auto gt = bruteForceAll(Metric::kIp, ds.queries, *ds.base, 10);
    double total = 0.0;
    for (std::size_t q = 0; q < ds.queries.size(); ++q) {
        total += recallAtK(idx.search(ds.queries[q].data(), 10, 128),
                           gt[q], 10);
    }
    EXPECT_GE(total / static_cast<double>(ds.queries.size()), 0.7);
}

TEST(HnswConcurrency, InterleavedSearchesOverTwoIndexesMatchSerial)
{
    // Each lane's visited-set scratch serves both indexes in turn,
    // growing to the larger one; every search must still equal the
    // serial search on its own index.
    const Dataset small = makeDataset(DatasetId::kSift, 300, 24, 5);
    const Dataset large = makeDataset(DatasetId::kSift, 1500, 24, 6);
    const HnswParams params{16, 60, 42};
    const HnswIndex a(*small.base, Metric::kL2, params);
    const HnswIndex b(*large.base, Metric::kL2, params);

    // Even items search the small index, odd items the large one.
    const std::size_t items = 2 * small.queries.size();
    auto searchItem = [&](std::size_t i) {
        const Dataset &ds = i % 2 == 0 ? small : large;
        const HnswIndex &idx = i % 2 == 0 ? a : b;
        return idx.search(ds.queries[i / 2].data(), 10, 48);
    };
    std::vector<std::vector<VectorId>> serial(items);
    for (std::size_t i = 0; i < items; ++i)
        serial[i] = searchItem(i);

    runtime::Runtime lanes(4);
    for (int round = 0; round < 4; ++round) {
        std::vector<std::vector<VectorId>> parallel(items);
        lanes.parallelFor(
            0, items,
            [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i)
                    parallel[i] = searchItem(i);
            },
            /*grain=*/1);
        EXPECT_EQ(parallel, serial) << "round " << round;
    }
}

/** Observer that starts a search of @p idx inside every comparison. */
class ReentrantObserver : public SearchObserver
{
  public:
    ReentrantObserver(const HnswIndex &idx, const float *q)
        : idx_(idx), q_(q)
    {
    }

    void
    onCompare(VectorId, double, double, bool) override
    {
        (void)idx_.search(q_, 1, 1);
    }

  private:
    const HnswIndex &idx_;
    const float *q_;
};

TEST(HnswConcurrencyDeathTest, SearchFromAnObserverOnItsOwnThreadDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const Dataset ds = makeDataset(DatasetId::kSift, 300, 1, 3);
    const HnswIndex idx(*ds.base, Metric::kL2, HnswParams{8, 40, 42});
    const float *q = ds.queries[0].data();
    ReentrantObserver obs(idx, q);
    EXPECT_DEATH((void)idx.search(q, 10, 32, obs),
                 "re-entrant HNSW search on one thread");
}

} // namespace
} // namespace ansmet::anns
