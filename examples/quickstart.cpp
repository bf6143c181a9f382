/**
 * @file
 * Quickstart: the whole 2-in-1 pipeline in ~80 lines.
 *
 *  1. build a synthetic dataset and an RPS-capable residual network;
 *  2. adversarially train it with PGD-7 + RPS (paper Alg. 1);
 *  3. evaluate natural and robust accuracy with and without the
 *     random precision switch;
 *  4. persist the trained model as a versioned checkpoint, reload it
 *     in a fresh Session, and serve batched traffic through a
 *     serve::Server at randomly drawn precisions;
 *  5. deploy it on the 2-in-1 accelerator model and read back
 *     latency/energy per inference.
 *
 * Build: cmake --build build --target quickstart
 * Run:   ./build/examples/quickstart
 */

#include <iostream>

#include "adversarial/evaluation.hh"
#include "adversarial/pgd.hh"
#include "adversarial/trainer.hh"
#include "core/system.hh"
#include "data/synthetic.hh"
#include "nn/model_zoo.hh"
#include "serve/server.hh"
#include "serve/session.hh"
#include "workloads/model_library.hh"

using namespace twoinone;

int
main()
{
    // 1. Data and model. The precision set is the paper's default
    //    RPS candidate set {4,5,6,8,12,16}.
    DatasetPair data = makeCifar10Like(/*scale=*/0.5);
    PrecisionSet set = PrecisionSet::rps4to16();

    Rng rng(1);
    ModelConfig mcfg;
    mcfg.baseWidth = 4;
    mcfg.precisions = set;
    Network model = preActResNetMini(mcfg, rng);
    std::cout << "model parameters: " << model.parameterCount()
              << ", SBN banks: " << model.bnBanks() << "\n";

    // 2. RPS adversarial training (Alg. 1): every iteration samples a
    //    precision, generates PGD-7 adversarial examples at that
    //    precision, and updates the model through the STE.
    TrainConfig tcfg;
    tcfg.method = TrainMethod::Pgd7;
    tcfg.rps = true;
    tcfg.epochs = 4;
    tcfg.verbose = true;
    Trainer trainer(model, tcfg);
    trainer.fit(data.train);
    model.setPrecision(0);

    // 3. Evaluate. The attacker samples a precision from the same
    //    set; the defender independently samples another (the
    //    paper's threat model).
    PgdAttack pgd20(AttackConfig::fromEps255(8.0f, 2.0f, 20));
    Rng eval_rng(2);
    double nat = rpsNaturalAccuracy(model, data.test, set, eval_rng);
    double rob =
        rpsRobustAccuracy(model, pgd20, data.test, set, eval_rng);
    double static_rob =
        robustAccuracy(model, pgd20, data.test, 8, 8, eval_rng);
    std::cout << "natural accuracy (RPS):        " << nat << "%\n"
              << "robust accuracy (RPS, PGD-20): " << rob << "%\n"
              << "robust accuracy (static 8b):   " << static_rob
              << "%\n";

    // 4. Persist the trained model — weights, SBN banks, calibration
    //    ranges, and the engine's pre-quantized weight codes — then
    //    redeploy it from the artifact in a fresh Session and serve
    //    batched traffic through a Server (one random precision per
    //    serving batch). Started paused, then flushed, the four
    //    requests close as one batch whatever the timing.
    {
        Session trained = Session::attach(model);
        trained.calibrate({data.test.images.slice0(0, 32)});
        trained.save("quickstart.ckpt");
    }
    Session deployed = Session::fromCheckpoint("quickstart.ckpt");
    serve::ServerConfig scfg;
    scfg.startPaused = true;
    serve::Server server(scfg);
    const std::vector<int> &shape = data.test.images.shape();
    int tenant = server.addTenant(
        deployed, std::vector<int>(shape.begin() + 1, shape.end()));
    std::vector<std::future<serve::Reply>> replies;
    for (int i = 0; i < 4; ++i)
        replies.push_back(
            server.submit(tenant, data.test.images.slice0(i * 8, 8)));
    server.flush();
    serve::ServeStats sstats = server.stats();
    // stats().qps carries the throughput; the printout sticks to
    // deterministic fields so runs diff clean across thread counts.
    std::cout << "served " << sstats.rows << " rows in "
              << sstats.batches << " batches from the artifact; "
              << "precisions drawn:";
    for (int bits : server.precisionTrace(tenant))
        std::cout << " " << bits;
    std::cout << "\n";

    // 5. Deploy on the accelerator model: random precision per
    //    inference, costed as the full-scale PreActResNet-18 workload
    //    on the 2-in-1 accelerator.
    TwoInOneSystem system(model, workloads::preActResNet18Cifar(), set);
    InferenceStats stats = system.classify(data.test.images.slice0(0, 8));
    std::cout << "one inference drew " << stats.precision
              << "-bit, cost " << stats.cycles << " cycles / "
              << stats.energyPj * 1e-6 << " uJ\n"
              << "expected energy per inference over the set: "
              << system.avgEnergyPjPerInference() * 1e-6 << " uJ\n";
    return 0;
}
