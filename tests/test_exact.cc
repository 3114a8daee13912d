/**
 * @file
 * Early-terminated exact search tests (Section 4.1's "can even be used
 * in accurate algorithms like kmeans and kNN"): results must be
 * bit-identical to the plain scans, with strictly fewer data touches.
 */

#include <gtest/gtest.h>

#include "anns/bruteforce.h"
#include "anns/dataset.h"
#include "common/check.h"
#include "common/prng.h"
#include "et/exact.h"
#include "et/profile.h"
#include "test_guards.h"

namespace ansmet::et {
namespace {

using anns::DatasetId;

struct Fixture
{
    anns::Dataset ds;
    EtProfile profile;
};

const Fixture &
fixture()
{
    static const Fixture f = [] {
        Fixture fx{anns::makeDataset(DatasetId::kDeep, 1500, 10, 6), {}};
        ProfileConfig cfg;
        cfg.numSamples = 50;
        cfg.maxPairs = 500;
        fx.profile = buildProfile(*fx.ds.base, fx.ds.metric(), cfg);
        return fx;
    }();
    return f;
}

TEST(ExactKnnEt, IdenticalToBruteForce)
{
    const Fixture &f = fixture();
    const FetchSimulator sim(*f.ds.base, f.ds.metric(), EtScheme::kOpt,
                             &f.profile);

    for (const auto &q : f.ds.queries) {
        const auto exact =
            anns::bruteForceKnn(f.ds.metric(), q.data(), *f.ds.base, 10);
        ExactScanStats stats;
        const auto et = exactKnnEt(sim, q.data(), 10, &stats);

        ASSERT_EQ(et.size(), exact.size());
        for (std::size_t i = 0; i < et.size(); ++i) {
            EXPECT_EQ(et[i].id, exact[i].id) << "rank " << i;
            EXPECT_DOUBLE_EQ(et[i].dist, exact[i].dist);
        }
        EXPECT_LT(stats.linesFetched, stats.linesFull)
            << "exact ET scan saved nothing";
        EXPECT_GT(stats.terminated, 0u);
    }
}

TEST(ExactKnnEt, SavingsGrowAsResultSetConverges)
{
    // The scan's threshold tightens as better candidates arrive, so a
    // k=1 scan should terminate more comparisons than a k=100 scan.
    const Fixture &f = fixture();
    const FetchSimulator sim(*f.ds.base, f.ds.metric(), EtScheme::kOpt,
                             &f.profile);
    const auto &q = f.ds.queries[0];

    ExactScanStats tight, loose;
    exactKnnEt(sim, q.data(), 1, &tight);
    exactKnnEt(sim, q.data(), 100, &loose);
    EXPECT_LE(tight.linesFetched, loose.linesFetched);
}

TEST(KmeansAssignEt, MatchesExhaustiveAssignment)
{
    // L2 (DEEP) and IP (GloVe), with the audit layer live: the
    // profile-less simulator behind the scan must bound IP from the
    // dataset's own value range and still save fetches.
    const ansmet::test::AuditGuard audit(true);
    const anns::Dataset glove =
        anns::makeDataset(DatasetId::kGlove, 1500, 10, 6);
    for (const anns::Dataset *ds : {&fixture().ds, &glove}) {
        const auto &vs = *ds->base;
        const unsigned k = 8;

        // Centroids: a few dataset vectors.
        std::vector<float> centroids;
        for (unsigned c = 0; c < k; ++c) {
            const auto cv = vs.toFloat(static_cast<VectorId>(c * 137));
            centroids.insert(centroids.end(), cv.begin(), cv.end());
        }

        ExactScanStats stats;
        const auto assign =
            kmeansAssignEt(vs, ds->metric(), centroids, k, &stats);

        ASSERT_EQ(assign.size(), vs.size());
        std::vector<float> buf(vs.dims());
        for (std::size_t v = 0; v < vs.size(); v += 13) {
            vs.toFloat(static_cast<VectorId>(v), buf.data());
            double best = std::numeric_limits<double>::infinity();
            unsigned best_c = 0;
            for (unsigned c = 0; c < k; ++c) {
                const double d = anns::distance(
                    ds->metric(), centroids.data() + c * vs.dims(),
                    buf.data(), vs.dims());
                if (d < best) {
                    best = d;
                    best_c = c;
                }
            }
            EXPECT_EQ(assign[v], best_c)
                << anns::metricName(ds->metric()) << " vector " << v;
        }
        EXPECT_LT(stats.linesFetched, stats.linesFull)
            << anns::metricName(ds->metric());
    }
}

} // namespace
} // namespace ansmet::et
