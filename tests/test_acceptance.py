"""Whole-package acceptance checks, one test per criterion.

Covers finite-difference gradients for every differentiable operation and
both training losses, closed-form oracles for the core update rules,
endpoint identities, trend reproduction on the default benchmark, the
ablation sweeps, and the hygiene invariants. The source model is trained
once and shared by the expensive blocks.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fewshot_tta.config import RunConfig
from fewshot_tta.data import BenchmarkConfig, SampleRecord
from fewshot_tta.fda import FdaConfig, FdaPlan, fda_transform
from fewshot_tta.finetune import FinetuneConfig
from fewshot_tta.gradcheck import finite_diff_check
from fewshot_tta.harness import (SWEEP_DEFAULTS, build_source_model, format_sweep,
                                 make_trial, prepare_benchmark, run_all, run_stage1,
                                 sweep)
from fewshot_tta.model import Backbone, SourceConfig
from fewshot_tta.prototypes import PrototypeBank, ema_update, init_bank, proto_classify
from fewshot_tta.stream import (AdaptConfig, adapt_batch, consistency_mask, entropy,
                                entropy_filter, entropy_min_loss, init_adapt_state,
                                make_stream, online_loss, pseudo_label, run_baseline)
from fewshot_tta.tensor import (Tensor, add, conv2d, cross_entropy, div, exp,
                                instance_norm, log, matmul, mul, neg, relu, reshape,
                                softmax, softmax_cross_entropy, softmax_entropy,
                                channel_stats, sqrt, sub, take_rows, tmean, tsum)

GRAD_TOL = 1e-4
ORACLE_TOL = 1e-9
EPS_TOL = 1e-6


# -- shared expensive artifacts ------------------------------------------


@pytest.fixture(scope="module")
def protocol():
    """Default benchmark, a trained source model, and the trend run config."""
    cfg = RunConfig(adapt=AdaptConfig(lr=5e-4))
    bench = prepare_benchmark(cfg)
    t0 = time.perf_counter()
    model, curve = build_source_model(cfg, bench)
    return {
        "cfg": cfg,
        "bench": bench,
        "source_model": model,
        "source_seconds": time.perf_counter() - t0,
    }


# -- criterion 1: gradient suite -----------------------------------------


def _fixed_scalar(rng, make_expr):
    """Zero-arg scalar function: fixed random weights against the op output."""
    w = rng.standard_normal(make_expr().shape)
    return lambda: tsum(mul(make_expr(), w))


def _op_cases(rng):
    """(name, builder) per differentiable operation; builder -> (fn, params)."""

    def away_from_zero(shape, lo=0.2, hi=1.5):
        return rng.uniform(lo, hi, size=shape) * rng.choice([-1.0, 1.0], size=shape)

    def pair(op):
        def build():
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(away_from_zero((3, 4), lo=0.4, hi=2.0), requires_grad=True)
            return _fixed_scalar(rng, lambda: op(a, b)), {"a": a, "b": b}
        return build

    def unary(op, data_fn):
        def build():
            a = Tensor(data_fn(), requires_grad=True)
            return _fixed_scalar(rng, lambda: op(a)), {"a": a}
        return build

    def build_matmul():
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((4, 5)), requires_grad=True)
        return _fixed_scalar(rng, lambda: matmul(a, b)), {"a": a, "b": b}

    def build_conv():
        x = Tensor(rng.standard_normal((2, 2, 4, 4)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, 2, 3, 3)) * 0.5, requires_grad=True)
        return _fixed_scalar(rng, lambda: conv2d(x, w)), {"x": x, "w": w}

    def build_take_rows():
        a = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
        idx = rng.choice(6, size=4, replace=False)
        return _fixed_scalar(rng, lambda: take_rows(a, idx)), {"a": a}

    def build_reshape():
        a = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        return _fixed_scalar(rng, lambda: reshape(a, 3, 4)), {"a": a}

    def build_softmax():
        z = Tensor(rng.uniform(-2.0, 2.0, size=(4, 5)), requires_grad=True)
        return _fixed_scalar(rng, lambda: softmax(z)), {"z": z}

    def build_softmax_entropy():
        z = Tensor(rng.uniform(-2.0, 2.0, size=(5, 4)), requires_grad=True)
        return _fixed_scalar(rng, lambda: softmax_entropy(z)), {"z": z}

    def build_cross_entropy():
        z = Tensor(rng.uniform(-1.5, 1.5, size=(5,)), requires_grad=True)
        label = int(rng.integers(5))
        return lambda: cross_entropy(softmax(z), label), {"z": z}

    def build_channel_stats():
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        wm = rng.standard_normal((2, 3))
        ws = rng.standard_normal((2, 3))

        def fn():
            mu, sigma = channel_stats(x, eps=1e-3)
            return add(tsum(mul(mu, wm)), tsum(mul(sigma, ws)))
        return fn, {"x": x}

    def build_instance_norm():
        x = Tensor(rng.standard_normal((2, 3, 4, 4)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, size=3), requires_grad=True)
        beta = Tensor(rng.standard_normal(3) * 0.3, requires_grad=True)
        return (_fixed_scalar(rng, lambda: instance_norm(x, gamma, beta)),
                {"x": x, "gamma": gamma, "beta": beta})

    def build_fda():
        x = Tensor(rng.standard_normal((3, 2, 4, 4)), requires_grad=True)
        plan = FdaPlan(pairing=rng.permutation(3),
                       lambdas=rng.uniform(0.05, 0.95, size=3))
        return _fixed_scalar(rng, lambda: fda_transform(x, plan)), {"x": x}

    def build_finetune_loss():
        z = Tensor(rng.uniform(-2.0, 2.0, size=(6, 4)), requires_grad=True)
        labels = rng.integers(0, 4, size=6)
        return lambda: softmax_cross_entropy(z, labels), {"z": z}

    def build_online_loss():
        z = Tensor(rng.uniform(-2.0, 2.0, size=(6, 4)), requires_grad=True)
        sel = np.array([0, 2, 3, 5])
        pseudo = rng.integers(0, 4, size=4)
        masks = np.array([1.0, 0.0, 1.0, 1.0])
        return (lambda: online_loss(take_rows(softmax(z), sel), pseudo, masks),
                {"z": z})

    def build_entropy_min_loss():
        z = Tensor(rng.uniform(-2.0, 2.0, size=(5, 3)), requires_grad=True)
        return lambda: entropy_min_loss(z), {"z": z}

    return [
        ("add", pair(add)),
        ("sub", pair(sub)),
        ("mul", pair(mul)),
        ("div", pair(div)),
        ("neg", unary(neg, lambda: rng.standard_normal((3, 4)))),
        ("sqrt", unary(sqrt, lambda: rng.uniform(0.3, 2.0, size=(3, 4)))),
        ("exp", unary(exp, lambda: rng.uniform(-1.5, 1.5, size=(3, 4)))),
        ("log", unary(log, lambda: rng.uniform(0.3, 3.0, size=(3, 4)))),
        ("relu", unary(relu, lambda: away_from_zero((3, 4)))),
        ("reshape", build_reshape),
        ("tsum", unary(lambda a: tsum(a, axis=1), lambda: rng.standard_normal((3, 4)))),
        ("tmean", unary(lambda a: tmean(a, axis=0), lambda: rng.standard_normal((3, 4)))),
        ("take_rows", build_take_rows),
        ("matmul", build_matmul),
        ("conv2d", build_conv),
        ("softmax", build_softmax),
        ("softmax_entropy", build_softmax_entropy),
        ("cross_entropy", build_cross_entropy),
        ("channel_stats", build_channel_stats),
        ("instance_norm", build_instance_norm),
        ("fda_transform", build_fda),
        ("finetune_loss", build_finetune_loss),
        ("online_loss", build_online_loss),
        ("entropy_min_loss", build_entropy_min_loss),
    ]


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    instances_per_op = 20
    worst = {}
    for name, builder in _op_cases(rng):
        worst_err = 0.0
        for _ in range(instances_per_op):
            fn, params = builder()
            report = finite_diff_check(fn, params)
            worst_err = max(worst_err, report.max_rel_err)
            assert report.max_rel_err < GRAD_TOL, (
                f"{name}: max relative error {report.max_rel_err:.3e} "
                f"at {report.worst_param}{report.worst_index}")
        worst[name] = worst_err
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"
    overall = max(worst.values())
    print(f"\ncriterion 1 gradient suite: PASS: {len(worst)} ops x "
          f"{instances_per_op} instances, worst rel err {overall:.2e}, {elapsed:.1f}s")


# -- criterion 2: closed-form oracles ------------------------------------


def _oracle_instance_norm(x, gamma, beta, eps):
    n, c, h, w = x.shape
    out = np.empty_like(x)
    for i in range(n):
        for ch in range(c):
            vals = x[i, ch].reshape(-1)
            mu = sum(vals) / len(vals)
            var = sum((v - mu) ** 2 for v in vals) / len(vals)
            out[i, ch] = gamma[ch] * (x[i, ch] - mu) / math.sqrt(var + eps) + beta[ch]
    return out


def _oracle_fda(x, plan, eps):
    n, c, h, w = x.shape
    mu = np.empty((n, c))
    sigma = np.empty((n, c))
    for i in range(n):
        for ch in range(c):
            vals = x[i, ch].reshape(-1)
            m = sum(vals) / len(vals)
            var = sum((v - m) ** 2 for v in vals) / len(vals)
            mu[i, ch] = m
            sigma[i, ch] = math.sqrt(var + eps)
    out = np.empty_like(x)
    for i in range(n):
        j = plan.pairing[i]
        lam = plan.lambdas[i]
        for ch in range(c):
            mu_mix = lam * mu[i, ch] + (1.0 - lam) * mu[j, ch]
            sig_mix = lam * sigma[i, ch] + (1.0 - lam) * sigma[j, ch]
            out[i, ch] = sig_mix * (x[i, ch] - mu[i, ch]) / sigma[i, ch] + mu_mix
    return out


def _oracle_entropy(p):
    total = 0.0
    for v in p:
        if v > 0.0:
            total -= v * math.log(v)
    return total


def _oracle_softmax_rows(z):
    out = np.empty_like(z)
    for i in range(z.shape[0]):
        e = np.exp(z[i] - z[i].max())
        out[i] = e / e.sum()
    return out


def _oracle_argmax(row):
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


def _oracle_entropy_filter(probs, alpha):
    b = probs.shape[0]
    keep = int(math.floor(alpha * b + 1e-9))
    ranked = sorted(range(b), key=lambda i: (_oracle_entropy(probs[i]), i))
    return sorted(ranked[:keep])


def _random_probs(rng, b, c):
    p = rng.uniform(0.0, 1.0, size=(b, c))
    zero = rng.random(size=(b, c)) < 0.15
    p = np.where(zero, 0.0, p)
    p[np.arange(b), rng.integers(0, c, size=b)] += 0.5
    return p / p.sum(axis=1, keepdims=True)


def test_criterion_2_update_rule_oracles():
    rng = np.random.default_rng(23)

    for _ in range(8):
        n, c = int(rng.integers(1, 7)), int(rng.integers(2, 6))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        x = rng.standard_normal((n, c, h, w))
        gamma = rng.uniform(0.5, 1.5, size=c)
        beta = rng.standard_normal(c)
        got = instance_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5).data
        want = _oracle_instance_norm(x, gamma, beta, 1e-5)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL

    for _ in range(8):
        n, d = int(rng.integers(2, 33)), int(rng.integers(2, 33))
        c = int(rng.integers(2, 11))
        emb = rng.standard_normal((n, d))
        labels = np.concatenate([np.arange(c), rng.integers(0, c, size=max(n - c, 0))])[:n]
        if n < c:
            continue
        bank = init_bank(emb, labels, class_count=c)
        for cls in range(c):
            members = [emb[i] for i in range(n) if labels[i] == cls]
            want = sum(members) / len(members)
            assert np.max(np.abs(bank.prototypes[cls] - want)) <= ORACLE_TOL

    for _ in range(8):
        n = int(rng.integers(2, 7))
        c, h, w = int(rng.integers(1, 5)), int(rng.integers(2, 6)), int(rng.integers(2, 6))
        x = rng.standard_normal((n, c, h, w))
        plan = FdaPlan(pairing=rng.permutation(n), lambdas=rng.uniform(0.0, 1.0, size=n))
        got = fda_transform(Tensor(x), plan, eps=1e-6).data
        want = _oracle_fda(x, plan, 1e-6)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL

    for _ in range(12):
        b, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
        probs = _random_probs(rng, b, c)
        for i in range(b):
            assert abs(entropy(probs[i]) - _oracle_entropy(probs[i])) <= ORACLE_TOL

    for _ in range(8):
        z = rng.uniform(-4.0, 4.0, size=(int(rng.integers(1, 33)), int(rng.integers(2, 11))))
        got = softmax_entropy(Tensor(z)).data
        soft = _oracle_softmax_rows(z)
        want = np.array([_oracle_entropy(soft[i]) for i in range(z.shape[0])])
        assert np.max(np.abs(got - want)) <= ORACLE_TOL

    for _ in range(8):
        c, d = int(rng.integers(2, 11)), int(rng.integers(2, 33))
        n = int(rng.integers(0, 20))
        beta = float(rng.uniform(0.0, 1.0))
        protos = rng.standard_normal((c, d))
        bank = PrototypeBank(protos.copy(), ema_beta=beta)
        emb = rng.standard_normal((n, d))
        labels = rng.integers(0, c, size=n)
        ema_update(bank, emb, labels)
        for cls in range(c):
            members = [emb[i] for i in range(n) if labels[i] == cls]
            if members:
                want = beta * protos[cls] + (1.0 - beta) * (sum(members) / len(members))
            else:
                want = protos[cls]
            assert np.max(np.abs(bank.prototypes[cls] - want)) <= ORACLE_TOL

    for _ in range(8):
        c, d = int(rng.integers(2, 11)), int(rng.integers(2, 33))
        n = int(rng.integers(1, 33))
        tau = float(rng.uniform(0.2, 2.0))
        protos = rng.standard_normal((c, d))
        feats = rng.standard_normal((n, d))
        got = proto_classify(PrototypeBank(protos), feats, temperature=tau)
        for i in range(n):
            sims = []
            fn = math.sqrt(sum(v * v for v in feats[i]))
            for cls in range(c):
                pn = math.sqrt(sum(v * v for v in protos[cls]))
                dot = sum(feats[i][k] * protos[cls][k] for k in range(d))
                sims.append(max(-1.0, min(1.0, dot / (fn * pn))))
            z = [s / tau for s in sims]
            zmax = max(z)
            e = [math.exp(v - zmax) for v in z]
            want = [v / sum(e) for v in e]
            assert np.max(np.abs(got[i] - np.array(want))) <= ORACLE_TOL

    for _ in range(8):
        b, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
        head = _random_probs(rng, b, c)
        proto = _random_probs(rng, b, c)
        got = consistency_mask(head, proto)
        want = np.array([1.0 if _oracle_argmax(head[i]) == _oracle_argmax(proto[i])
                         else 0.0 for i in range(b)])
        assert np.array_equal(got, want)

    for _ in range(8):
        b, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
        probs = _random_probs(rng, b, c) + 1e-4
        probs /= probs.sum(axis=1, keepdims=True)
        pseudo = rng.integers(0, c, size=b)
        masks = (rng.random(b) < 0.6).astype(np.float64)
        loss = online_loss(Tensor(probs), pseudo, masks)
        if masks.sum() == 0:
            assert loss is None
        else:
            want = sum(-math.log(probs[i, pseudo[i]]) * masks[i] for i in range(b))
            want /= masks.sum()
            assert abs(loss.item() - want) <= ORACLE_TOL

    # exhaustive tie cases over a two-level value alphabet
    for c in (2, 3, 4):
        for code in range(2 ** c):
            row = np.array([float((code >> j) & 1) for j in range(c)])
            assert pseudo_label(row[None, :])[0] == _oracle_argmax(row)
    for code_a in range(2 ** 3):
        for code_b in range(2 ** 3):
            pa = np.array([1.0 + ((code_a >> j) & 1) for j in range(3)])
            pb = np.array([1.0 + ((code_b >> j) & 1) for j in range(3)])
            pa, pb = pa / pa.sum(), pb / pb.sum()
            want = 1.0 if _oracle_argmax(pa) == _oracle_argmax(pb) else 0.0
            assert consistency_mask(pa[None, :], pb[None, :])[0] == want
    lo = np.array([0.9, 0.05, 0.05])
    hi = np.array([1 / 3, 1 / 3, 1 / 3])
    for code in range(2 ** 4):
        batch = np.stack([lo if (code >> j) & 1 else hi for j in range(4)])
        for alpha in (0.0, 0.25, 0.3, 0.5, 0.75, 1.0):
            got = entropy_filter(batch, alpha)
            assert got.tolist() == _oracle_entropy_filter(batch, alpha)
    for _ in range(30):
        b, c = int(rng.integers(1, 65)), int(rng.integers(2, 11))
        probs = _random_probs(rng, b, c)
        # duplicated rows force exact entropy ties
        dup = rng.integers(0, b, size=b // 2)
        probs[: len(dup)] = probs[dup]
        alpha = float(rng.choice([0.0, 0.1, 0.3, 0.5, 0.6, 0.9, 1.0]))
        assert entropy_filter(probs, alpha).tolist() == _oracle_entropy_filter(probs, alpha)

    print("\ncriterion 2 update-rule oracles: PASS: all oracles within 1e-9, "
          "tie cases exhaustive")


# -- criterion 3: endpoint identities ------------------------------------


def _tiny_model(rng, num_classes=4):
    model = Backbone(widths=(3, 4, 6, 6), num_classes=num_classes, init_seed=5)
    model.params["head.weight"] = Tensor(
        rng.standard_normal(model.params["head.weight"].shape) * 0.5,
        requires_grad=True)
    return model


def test_criterion_3_endpoint_identities():
    rng = np.random.default_rng(31)

    x = rng.standard_normal((4, 3, 5, 5))
    plan = FdaPlan(pairing=rng.permutation(4), lambdas=np.ones(4))
    out = fda_transform(Tensor(x), plan, eps=1e-6).data
    assert np.max(np.abs(out - x)) <= EPS_TOL

    protos = rng.standard_normal((5, 8)) + 0.1
    bank = PrototypeBank(protos.copy(), ema_beta=1.0)
    ema_update(bank, rng.standard_normal((12, 8)), rng.integers(0, 5, size=12))
    assert np.array_equal(bank.prototypes, protos)

    model = _tiny_model(rng)
    emb = rng.standard_normal((8, model.embed_dim))
    bank = init_bank(emb, np.array([0, 1, 2, 3, 0, 1, 2, 3]), class_count=4)
    state = init_adapt_state(model, bank, AdaptConfig(alpha=0.0, batch_size=8))
    before = model.params_hash()
    adapt_batch(state, rng.standard_normal((8, 3, 6, 6)))
    assert model.params_hash() == before

    probs = _random_probs(rng, 6, 4) + 1e-3
    probs /= probs.sum(axis=1, keepdims=True)
    assert online_loss(Tensor(probs), np.zeros(6, dtype=int), np.zeros(6)) is None

    # a head locked onto class 0 against a bank locked onto class 1 zeroes
    # every consistency mask, so the whole batch is a sentinel no-op
    model2 = _tiny_model(rng, num_classes=2)
    model2.params["head.bias"] = Tensor(np.array([50.0, 0.0]), requires_grad=True)
    protos2 = np.stack([-np.ones(model2.embed_dim), np.ones(model2.embed_dim)])
    state2 = init_adapt_state(model2, PrototypeBank(protos2), AdaptConfig(alpha=1.0))
    before2 = model2.params_hash()
    adapt_batch(state2, np.abs(rng.standard_normal((6, 3, 6, 6))) + 0.1)
    assert state2.mask_total == 0
    assert model2.params_hash() == before2

    model3 = _tiny_model(rng)
    records = [SampleRecord(label=int(rng.integers(4)),
                            pixels=rng.standard_normal((3, 6, 6)), domain_id=0)
               for _ in range(20)]
    stream = make_stream(records, batch_size=5, seed=0)
    before3 = model3.params_hash()
    run_baseline("source_only", model3, stream, AdaptConfig(batch_size=5))
    assert model3.params_hash() == before3

    print("\ncriterion 3 endpoint identities: PASS: lambda=1, beta=1, alpha=0, "
          "zero-mask sentinel, frozen baseline")


# -- criterion 4: default-benchmark trends -------------------------------


def test_criterion_4_benchmark_trends(protocol):
    cfg = protocol["cfg"]
    source_model = protocol["source_model"]
    t0 = time.perf_counter()

    by_method = {m: [] for m in ("source_only", "norm_stat", "entropy_min",
                                 "ft_only", "ft_plus_entropy_min", "fs_tta")}
    k1_accs = []
    for trial_seed in range(5):
        run_cfg = dataclasses.replace(cfg, trial_seed=trial_seed)
        doc = run_all(run_cfg, methods=list(by_method), source_model=source_model)
        for m in by_method:
            by_method[m].append(doc["methods"][m]["final_accuracy"])
        k1_cfg = dataclasses.replace(run_cfg, k=1)
        k1_doc = run_all(k1_cfg, methods=["ft_only"], source_model=source_model)
        k1_accs.append(k1_doc["methods"]["ft_only"]["final_accuracy"])

    mean = {m: float(np.mean(v)) for m, v in by_method.items()}
    k1_mean = float(np.mean(k1_accs))
    elapsed = time.perf_counter() - t0
    budget = protocol["source_seconds"] + elapsed

    gain_stage1 = mean["ft_only"] - mean["source_only"]
    gain_stage2 = mean["fs_tta"] - mean["ft_only"]
    gain_vs_entropy = mean["fs_tta"] - mean["entropy_min"]
    gain_vs_source = mean["fs_tta"] - mean["source_only"]

    assert gain_stage1 >= 0.02, f"stage 1 gain {gain_stage1:+.4f} under 2 points"
    assert gain_stage2 >= 0.005, f"stage 2 gain {gain_stage2:+.4f} under 0.5 points"
    assert gain_vs_entropy >= 0.05, (
        f"lead over entropy minimization {gain_vs_entropy:+.4f} under 5 points")
    assert k1_mean > mean["entropy_min"], (
        f"1-shot fine-tuning {k1_mean:.4f} does not beat "
        f"entropy minimization {mean['entropy_min']:.4f}")
    assert gain_vs_source >= 0.05, f"full-method gain {gain_vs_source:+.4f} under 5 points"
    assert budget < 600.0, f"trend block took {budget:.0f}s including source training"

    print(f"\ncriterion 4 benchmark trends: PASS: source {mean['source_only']:.4f}, "
          f"stage1 {mean['ft_only']:.4f} ({gain_stage1:+.4f}), "
          f"full {mean['fs_tta']:.4f} ({gain_stage2:+.4f} over stage1, "
          f"{gain_vs_entropy:+.4f} over entropy min), 1-shot {k1_mean:.4f}, "
          f"{budget:.0f}s")


# -- criterion 5: ablation sweeps ----------------------------------------


def test_criterion_5_ablation_sweeps(protocol, tmp_path):
    cfg = protocol["cfg"]
    trials = (0, 1, 2)
    docs = {}
    for axis in ("alpha", "kshot", "batch"):
        doc = sweep(cfg, axis, trial_seeds=trials,
                    source_model=protocol["source_model"], bench=protocol["bench"])
        docs[axis] = doc
        text = format_sweep(doc)
        out = tmp_path / f"sweep_{axis}.txt"
        out.write_text(text + "\n")
        assert out.stat().st_size > 0
        assert [row["value"] for row in doc["rows"]] == list(SWEEP_DEFAULTS[axis])

    assert docs["alpha"]["alpha0_matches_stage1"] is True

    by_alpha = {row["value"]: row["mean_accuracy"] for row in docs["alpha"]["rows"]}
    mid_beats_full = (by_alpha[0.3] >= by_alpha[1.0]) or (by_alpha[0.6] >= by_alpha[1.0])
    k_means = [row["mean_accuracy"] for row in docs["kshot"]["rows"]]
    k_monotone = all(a <= b + 1e-12 for a, b in zip(k_means, k_means[1:]))
    per_sample = [row["per_sample_seconds"] for row in docs["batch"]["rows"]]

    print(f"\ncriterion 5 ablation sweeps: PASS: alpha0 equality holds; "
          f"alpha accs {by_alpha}; partial-filter-beats-full recorded as "
          f"{mid_beats_full}; k-shot means {['%.4f' % v for v in k_means]} "
          f"(monotone: {k_monotone}); per-sample seconds by batch "
          f"{['%.5f' % v for v in per_sample]}")


# -- criterion 6: hygiene invariants -------------------------------------


def _small_cfg():
    data = BenchmarkConfig(class_count=3, per_class_count=12, image_size=8,
                           source_gains=((1.0, 1.0, 1.0), (1.2, 0.8, 1.0)),
                           source_biases=((0.0, 0.0, 0.0), (0.1, -0.1, 0.0)),
                           target_gain=(0.3, 1.1, 0.9), target_bias=(0.4, -0.3, 0.1),
                           target_noise_std=0.05)
    return RunConfig(k=2, widths=(3, 4, 8, 8), data=data,
                     source=SourceConfig(iters=60, lr=3e-3, batch_size=16),
                     finetune=FinetuneConfig(epochs=5, lr=1e-3,
                                             fda=FdaConfig(p_apply=1.0)),
                     adapt=AdaptConfig(batch_size=10, lr=1e-3))


def _strip_timings(doc):
    if isinstance(doc, dict):
        return {k: _strip_timings(v) for k, v in doc.items() if k != "seconds"}
    if isinstance(doc, list):
        return [_strip_timings(v) for v in doc]
    return doc


def test_criterion_6_hygiene_invariants(protocol):
    cfg = dataclasses.replace(protocol["cfg"], trial_seed=0)
    trial = make_trial(cfg, protocol["bench"])
    stage1 = run_stage1(cfg, trial, protocol["source_model"])

    stream = make_stream(trial.remainder, cfg.adapt.batch_size,
                         trial.seeds["stream"], cfg.stream_order)
    rng = np.random.default_rng(7)
    shuffled = [dataclasses.replace(rec, label=int(lab))
                for rec, lab in zip(trial.remainder,
                                    rng.permutation([r.label for r in trial.remainder]))]
    stream_shuffled = make_stream(shuffled, cfg.adapt.batch_size,
                                  trial.seeds["stream"], cfg.stream_order)
    model_a, model_b = stage1.tuned.copy(), stage1.tuned.copy()
    metrics_a = run_baseline("fs_tta", model_a, stream, cfg.adapt, bank=stage1.bank.copy())
    metrics_b = run_baseline("fs_tta", model_b, stream_shuffled, cfg.adapt,
                             bank=stage1.bank.copy())
    assert metrics_a.mask_total > 0
    assert model_a.params_hash() == model_b.params_hash()
    assert metrics_a.final_accuracy != metrics_b.final_accuracy

    state_full = init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(), cfg.adapt)
    preds_full = [adapt_batch(state_full, b.inputs) for b in stream]
    state_prefix = init_adapt_state(stage1.tuned.copy(), stage1.bank.copy(), cfg.adapt)
    for i, batch in enumerate(stream[:4]):
        assert np.array_equal(adapt_batch(state_prefix, batch.inputs), preds_full[i])

    small = _small_cfg()
    doc_1 = run_all(small, methods=("fs_tta", "entropy_min"))
    doc_2 = run_all(small, methods=("fs_tta", "entropy_min"))
    assert repr(_strip_timings(doc_1)) == repr(_strip_timings(doc_2))

    print("\ncriterion 6 hygiene invariants: PASS: label taint, prefix replay, "
          "master-seed determinism")


# -- golden digests on the benchmark's stored source model ---------------


def test_fixture_golden_digests():
    """Stage 1 and all six methods on the default trial from the perfbench
    fixture hash as recorded (see ``test_golden.py``; skips in an
    environment with no recorded digests)."""
    from test_golden import ACCEPTANCE_TIER, recorded_digests  # it imports this module

    recorded = recorded_digests()
    got = {name: fn() for name, fn in ACCEPTANCE_TIER.items()}
    assert got == {name: recorded.get(name) for name in ACCEPTANCE_TIER}
