"""Train the pooled-source model at reduced scale and measure how much
accuracy the target shift costs it."""

from fewshot_tta.data import BenchmarkConfig, generate_benchmark
from fewshot_tta.finetune import eval_accuracy
from fewshot_tta.model import SourceConfig, train_source

cfg = BenchmarkConfig(per_class_count=60)
source_domains, target_data = generate_benchmark(cfg, seed=0)

model, curve = train_source(source_domains, SourceConfig(iters=400, log_every=100), seed=0,
                            widths=(3, 8, 16, 16), num_classes=cfg.class_count)
for step, loss in curve:
    print(f"iter {step:4d}  loss {loss:.4f}")

held_in = [r for d in source_domains for r in d[: len(d) // 5]]
print(f"in-domain accuracy {eval_accuracy(model, held_in):.4f}")
print(f"target accuracy    {eval_accuracy(model, target_data):.4f}")
print("the gap is the whole problem: everything after this point is about "
      "closing it without target labels")
