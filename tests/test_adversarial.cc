/**
 * @file
 * Tests for the adversarial suite: attack invariants (ball membership,
 * loss increase, effectiveness), trainer behaviour, and the evaluation
 * harness.
 */

#include <gtest/gtest.h>

#include "adversarial/autoattack.hh"
#include "adversarial/bandits.hh"
#include "adversarial/cw.hh"
#include "adversarial/epgd.hh"
#include "adversarial/evaluation.hh"
#include "adversarial/fgsm.hh"
#include "adversarial/pgd.hh"
#include "adversarial/trainer.hh"
#include "nn/batchnorm.hh"
#include "nn/model_zoo.hh"
#include "tensor/ops.hh"

namespace twoinone {
namespace {

/** Small fixture: a tiny net trained briefly on a tiny dataset. */
class AdversarialFixture : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        rng_ = std::make_unique<Rng>(77);
        SyntheticConfig dcfg;
        dcfg.trainSize = 256;
        dcfg.testSize = 96;
        dcfg.seed = 5;
        data_ = makeSynthetic(dcfg, "test");

        ModelConfig mcfg;
        mcfg.baseWidth = 4;
        mcfg.precisions = PrecisionSet({4, 8});
        net_ = std::make_unique<Network>(preActResNetMini(mcfg, *rng_));

        TrainConfig tcfg;
        tcfg.method = TrainMethod::Natural;
        tcfg.epochs = 4;
        tcfg.batchSize = 32;
        tcfg.lr = 0.08f;
        Trainer trainer(*net_, tcfg);
        trainer.fit(data_.train);
        net_->setPrecision(0);
    }

    std::unique_ptr<Rng> rng_;
    DatasetPair data_;
    std::unique_ptr<Network> net_;
};

TEST_F(AdversarialFixture, ModelLearnedTheTask)
{
    double acc = naturalAccuracy(*net_, data_.test);
    EXPECT_GT(acc, 60.0);
}

/** naturalAccuracy's plan, sized by the first batch, also serves the
 * partial last one: its accuracy equals the one counted from the
 * network's per-layer predict over the same batches. */
TEST_F(AdversarialFixture, NaturalAccuracyMatchesNetworkPredict)
{
    const Dataset &test = data_.test;
    const int batch = 40;
    ASSERT_NE(test.size() % batch, 0) << "the last batch must be partial";
    for (int bits : {0, 4, 8}) {
        net_->setPrecision(bits);
        int correct = 0;
        for (int start = 0; start < test.size(); start += batch) {
            Dataset b =
                test.batch(start, std::min(batch, test.size() - start));
            std::vector<int> pred = net_->predict(b.images);
            for (size_t i = 0; i < pred.size(); ++i)
                correct += pred[i] == b.labels[i] ? 1 : 0;
        }
        EXPECT_DOUBLE_EQ(naturalAccuracy(*net_, test, batch),
                         100.0 * correct / test.size())
            << "bits=" << bits;
    }
    net_->setPrecision(0);
}

TEST_F(AdversarialFixture, PgdStaysInEpsBall)
{
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 10);
    PgdAttack attack(cfg);
    Dataset b = data_.test.batch(0, 16);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    EXPECT_LE(ops::linfDistance(b.images, adv), cfg.eps + 1e-5f);
    EXPECT_GE(*std::min_element(adv.data(), adv.data() + adv.size()),
              0.0f);
    EXPECT_LE(*std::max_element(adv.data(), adv.data() + adv.size()),
              1.0f);
}

TEST_F(AdversarialFixture, PgdIncreasesLoss)
{
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 10);
    PgdAttack attack(cfg);
    Dataset b = data_.test.batch(0, 32);

    std::vector<float> clean = perSampleCeLoss(*net_, b.images, b.labels);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    std::vector<float> attacked = perSampleCeLoss(*net_, adv, b.labels);

    double clean_mean = 0.0, adv_mean = 0.0;
    for (size_t i = 0; i < clean.size(); ++i) {
        clean_mean += clean[i];
        adv_mean += attacked[i];
    }
    EXPECT_GT(adv_mean, clean_mean);
}

TEST_F(AdversarialFixture, PgdBeatsNaturalAccuracy)
{
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 20);
    PgdAttack attack(cfg);
    double nat = naturalAccuracy(*net_, data_.test);
    double rob = robustAccuracy(*net_, attack, data_.test, 0, 0, *rng_);
    EXPECT_LT(rob, nat);
}

TEST_F(AdversarialFixture, MoreStepsIsNoWeaker)
{
    Dataset sub = data_.test.batch(0, 64);
    AttackConfig weak = AttackConfig::fromEps255(8.0f, 2.0f, 2);
    AttackConfig strong = AttackConfig::fromEps255(8.0f, 2.0f, 20);
    weak.randomStart = strong.randomStart = false;
    PgdAttack a_weak(weak), a_strong(strong);
    Rng r1(1), r2(1);
    double acc_weak =
        robustAccuracy(*net_, a_weak, sub, 0, 0, r1);
    double acc_strong =
        robustAccuracy(*net_, a_strong, sub, 0, 0, r2);
    EXPECT_LE(acc_strong, acc_weak + 5.0);
}

TEST_F(AdversarialFixture, FgsmIsOneStep)
{
    AttackConfig cfg;
    cfg.eps = 8.0f / 255.0f;
    FgsmAttack attack(cfg);
    Dataset b = data_.test.batch(0, 8);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    // Every changed pixel moved by exactly eps (unless clamped).
    int moved = 0;
    for (size_t i = 0; i < adv.size(); ++i) {
        float d = std::fabs(adv[i] - b.images[i]);
        if (d > 1e-6f) {
            ++moved;
            EXPECT_LE(d, cfg.eps + 1e-5f);
        }
    }
    EXPECT_GT(moved, 0);
}

TEST_F(AdversarialFixture, FgsmRsStaysInBall)
{
    AttackConfig cfg;
    cfg.eps = 8.0f / 255.0f;
    cfg.alpha = 1.25f * cfg.eps;
    FgsmRsAttack attack(cfg);
    Dataset b = data_.test.batch(0, 8);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    EXPECT_LE(ops::linfDistance(b.images, adv), cfg.eps + 1e-5f);
}

TEST_F(AdversarialFixture, CwInfStaysInBallAndHurts)
{
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 15);
    CwInfAttack attack(cfg);
    Dataset b = data_.test.batch(0, 48);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    EXPECT_LE(ops::linfDistance(b.images, adv), cfg.eps + 1e-5f);

    std::vector<int> pred_clean = net_->predict(b.images);
    std::vector<int> pred_adv = net_->predict(adv);
    int clean_ok = 0, adv_ok = 0;
    for (size_t i = 0; i < b.labels.size(); ++i) {
        clean_ok += (pred_clean[i] == b.labels[i]);
        adv_ok += (pred_adv[i] == b.labels[i]);
    }
    EXPECT_LE(adv_ok, clean_ok);
}

TEST_F(AdversarialFixture, AutoAttackNoWeakerThanSinglePgd)
{
    Dataset sub = data_.test.batch(0, 64);
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 10);
    PgdAttack pgd(cfg);
    AutoAttackLite aa(cfg);
    Rng r1(3), r2(3);
    double acc_pgd = robustAccuracy(*net_, pgd, sub, 0, 0, r1);
    double acc_aa = robustAccuracy(*net_, aa, sub, 0, 0, r2);
    EXPECT_LE(acc_aa, acc_pgd + 5.0);
}

TEST_F(AdversarialFixture, BanditsUsesNoGradientsAndStaysInBall)
{
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 12);
    BanditsAttack attack(cfg);
    Dataset b = data_.test.batch(0, 16);
    Tensor adv = attack.perturb(*net_, b.images, b.labels, *rng_);
    EXPECT_LE(ops::linfDistance(b.images, adv), cfg.eps + 1e-5f);
}

TEST_F(AdversarialFixture, EpgdRestoresActivePrecision)
{
    net_->setPrecision(8);
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 3);
    EpgdAttack attack(cfg, net_->precisionSet());
    Dataset b = data_.test.batch(0, 8);
    attack.perturb(*net_, b.images, b.labels, *rng_);
    EXPECT_EQ(net_->activePrecision(), 8);
    net_->setPrecision(0);
}

TEST_F(AdversarialFixture, TransferMatrixDiagonalIsWorst)
{
    // Transferred attacks should on average beat same-precision
    // attacks in robust accuracy (paper Fig. 1 observation 2).
    PrecisionSet set({4, 8});
    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 10);
    PgdAttack attack(cfg);
    Dataset sub = data_.test.batch(0, 64);
    auto m = transferMatrix(*net_, attack, sub, set, *rng_);

    double diag = (m[0][0] + m[1][1]) / 2.0;
    double off = (m[0][1] + m[1][0]) / 2.0;
    EXPECT_GE(off, diag - 5.0);
}

TEST(Trainer, MethodNames)
{
    EXPECT_EQ(trainMethodName(TrainMethod::Pgd7), "PGD-7");
    EXPECT_EQ(trainMethodName(TrainMethod::FgsmRs), "FGSM-RS");
    EXPECT_EQ(trainMethodName(TrainMethod::Free), "Free");
}

TEST(Trainer, NaturalTrainingImprovesAccuracy)
{
    Rng rng(31);
    SyntheticConfig dcfg;
    dcfg.numClasses = 4;
    dcfg.trainSize = 192;
    dcfg.testSize = 96;
    DatasetPair data = makeSynthetic(dcfg, "t");

    ModelConfig mcfg;
    mcfg.baseWidth = 4;
    mcfg.numClasses = 4;
    Network net = convNetTiny(mcfg, rng);
    double before = naturalAccuracy(net, data.test);

    TrainConfig tcfg;
    tcfg.method = TrainMethod::Natural;
    tcfg.epochs = 6;
    tcfg.batchSize = 32;
    tcfg.lr = 0.08f;
    Trainer trainer(net, tcfg);
    trainer.fit(data.train);
    net.setPrecision(0);
    double after = naturalAccuracy(net, data.test);
    EXPECT_GT(after, before);
    EXPECT_GT(after, 50.0);
}

TEST(Trainer, RpsTrainingTouchesAllSbnBanks)
{
    Rng rng(32);
    SyntheticConfig dcfg;
    dcfg.trainSize = 128;
    dcfg.testSize = 32;
    DatasetPair data = makeSynthetic(dcfg, "t");

    ModelConfig mcfg;
    mcfg.baseWidth = 4;
    mcfg.precisions = PrecisionSet({4, 8});
    Network net = convNetTiny(mcfg, rng);

    TrainConfig tcfg;
    tcfg.method = TrainMethod::Fgsm;
    tcfg.rps = true;
    tcfg.epochs = 6;
    tcfg.batchSize = 16;
    Trainer trainer(net, tcfg);
    trainer.fit(data.train);

    // The SBN of the first BN layer must have moved in banks 1 and 2
    // (precision banks) but not in bank 0 (full precision, unused).
    auto *bn = dynamic_cast<SwitchableBatchNorm2d *>(&net.layer(1));
    ASSERT_NE(bn, nullptr);
    float moved1 = 0.0f, moved2 = 0.0f, moved0 = 0.0f;
    for (int c = 0; c < bn->channels(); ++c) {
        moved0 += std::fabs(bn->runningMean(0)[static_cast<size_t>(c)]);
        moved1 += std::fabs(bn->runningMean(1)[static_cast<size_t>(c)]);
        moved2 += std::fabs(bn->runningMean(2)[static_cast<size_t>(c)]);
    }
    EXPECT_EQ(moved0, 0.0f);
    EXPECT_GT(moved1, 0.0f);
    EXPECT_GT(moved2, 0.0f);
}

TEST(Trainer, FreeTakesMultipleStepsPerBatch)
{
    Rng rng(33);
    SyntheticConfig dcfg;
    dcfg.trainSize = 64;
    dcfg.testSize = 32;
    DatasetPair data = makeSynthetic(dcfg, "t");

    ModelConfig mcfg;
    mcfg.baseWidth = 4;
    Network net = convNetTiny(mcfg, rng);

    TrainConfig tcfg;
    tcfg.method = TrainMethod::Free;
    tcfg.epochs = 1;
    tcfg.batchSize = 32;
    tcfg.freeReplays = 4;
    Trainer trainer(net, tcfg);
    trainer.fit(data.train);
    // 2 batches x 4 replays.
    EXPECT_EQ(trainer.stepsTaken(), 8);
}

TEST(Evaluation, RpsAccuraciesAreWellFormed)
{
    Rng rng(34);
    SyntheticConfig dcfg;
    dcfg.trainSize = 96;
    dcfg.testSize = 64;
    DatasetPair data = makeSynthetic(dcfg, "t");

    ModelConfig mcfg;
    mcfg.baseWidth = 4;
    mcfg.precisions = PrecisionSet({4, 8});
    Network net = convNetTiny(mcfg, rng);

    double nat = rpsNaturalAccuracy(net, data.test, net.precisionSet(),
                                    rng);
    EXPECT_GE(nat, 0.0);
    EXPECT_LE(nat, 100.0);

    AttackConfig cfg = AttackConfig::fromEps255(8.0f, 2.0f, 2);
    PgdAttack attack(cfg);
    double rob = rpsRobustAccuracy(net, attack, data.test,
                                   net.precisionSet(), rng);
    EXPECT_GE(rob, 0.0);
    EXPECT_LE(rob, 100.0);
}

TEST(Data, SyntheticDatasetsAreWellFormed)
{
    DatasetPair p = makeCifar10Like(0.25);
    EXPECT_EQ(p.train.numClasses, 10);
    EXPECT_EQ(p.train.size(), 256);
    EXPECT_EQ(p.test.size(), 128);
    for (int label : p.train.labels) {
        EXPECT_GE(label, 0);
        EXPECT_LT(label, 10);
    }
    for (size_t i = 0; i < p.train.images.size(); ++i) {
        EXPECT_GE(p.train.images[i], 0.0f);
        EXPECT_LE(p.train.images[i], 1.0f);
    }
}

TEST(Data, AllFourStandInsGenerate)
{
    EXPECT_GT(makeCifar10Like(0.1).train.size(), 0);
    EXPECT_EQ(makeCifar100Like(0.1).train.numClasses, 20);
    EXPECT_EQ(makeSvhnLike(0.1).train.numClasses, 10);
    EXPECT_EQ(makeImageNetLike(0.1).train.images.dim(2), 12);
}

TEST(Data, GenerationIsDeterministicPerSeed)
{
    DatasetPair a = makeCifar10Like(0.1, 99);
    DatasetPair b = makeCifar10Like(0.1, 99);
    EXPECT_EQ(a.train.labels, b.train.labels);
    for (size_t i = 0; i < a.train.images.size(); ++i)
        EXPECT_EQ(a.train.images[i], b.train.images[i]);
}

TEST(Data, BatchSlicingMatchesSource)
{
    DatasetPair p = makeCifar10Like(0.1);
    Dataset b = p.train.batch(3, 5);
    EXPECT_EQ(b.size(), 5);
    EXPECT_EQ(b.labels[0], p.train.labels[3]);
    Tensor row = p.train.images.slice0(3, 1);
    for (size_t i = 0; i < row.size(); ++i)
        EXPECT_EQ(b.images[i], row[i]);
}

} // namespace
} // namespace twoinone
