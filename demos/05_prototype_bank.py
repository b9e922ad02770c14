"""Class prototypes as a second classifier: build them from a handful of
labeled embeddings, track a drifting stream with the EMA, and compare the
cosine softmax against a linear head."""

import numpy as np

from fewshot_tta.prototypes import PrototypeBank, ema_update, init_bank, proto_classify

rng = np.random.default_rng(5)
classes, dim = 4, 16

# a few labeled support embeddings per class around distinct directions
centers = rng.standard_normal((classes, dim)) * 2.0
support = np.repeat(centers, 5, axis=0) + rng.standard_normal((classes * 5, dim)) * 0.3
support_labels = np.repeat(np.arange(classes), 5)
bank = init_bank(support, support_labels, class_count=classes)
print(f"bank t={bank.t}, update_counts {bank.update_counts}")

probs = proto_classify(bank, support, temperature=0.1)
acc = np.mean(np.argmax(probs, axis=1) == support_labels)
print(f"support accuracy from cosine prototypes: {acc:.3f}")

# the stream drifts: class means rotate toward each other's directions,
# and only the EMA bank keeps up
frozen = init_bank(support, support_labels, class_count=classes)
rotated = centers[(np.arange(classes) + 1) % classes]
for step in range(1, 31):
    moved = centers + (rotated - centers) * (0.6 * step / 30.0)
    batch_labels = rng.integers(0, classes, size=12)
    batch = moved[batch_labels] + rng.standard_normal((12, dim)) * 0.3
    ema_update(bank, batch, batch_labels)
    if step % 10 == 0:
        probe_labels = np.repeat(np.arange(classes), 8)
        probe = moved[probe_labels] + rng.standard_normal((classes * 8, dim)) * 0.3
        track = np.mean(np.argmax(proto_classify(bank, probe, temperature=0.1),
                                  axis=1) == probe_labels)
        stale = np.mean(np.argmax(proto_classify(frozen, probe, temperature=0.1),
                                  axis=1) == probe_labels)
        print(f"step {step:2d}: t={bank.t}, tracked bank {track:.3f} "
              f"vs frozen support bank {stale:.3f}")

# beta = 1 freezes the bank no matter what arrives
frozen = PrototypeBank(init_bank(support, support_labels, class_count=classes).prototypes,
                       ema_beta=1.0)
snapshot = frozen.prototypes.copy()
ema_update(frozen, rng.standard_normal((20, dim)), rng.integers(0, classes, size=20))
print(f"beta=1 prototypes unchanged: {np.array_equal(frozen.prototypes, snapshot)}")
