"""Show the channel gates at work, then switch them off.

The attention block squeezes each feature map to a per-channel mean, runs it
through a small bottleneck, and multiplies every channel by a sigmoid gate.
This script trains nothing; it inspects gate values on a fresh model, shows
that different inputs get different gates, and then saturates the gate bias
so the block collapses to the identity.
"""

from dataclasses import replace

import numpy as np

from attnens.data import float_image
from attnens.model import ForwardMode, Model, build_model, desk_config, forward, forward_cached
from attnens.synth import SynthSpec, synth_dataset


def gates_for(model, batch):
    _, tape = forward_cached(model, batch, ForwardMode.eval())
    return next(cache for kind, _, cache in tape if kind == "attention")[4]


def main():
    spec = SynthSpec(num_classes=4, per_class=4, image_size=48, seed=2)
    data = synth_dataset(spec, "train")
    batch = np.stack([float_image(s.image) for s in data.samples[:8]])

    model = build_model(desk_config(4), seed=0)
    gates = gates_for(model, batch)
    print(f"gate matrix shape: {gates.shape}  (samples x channels)")
    print(f"gate range on fresh weights: [{gates.min():.3f}, {gates.max():.3f}]")
    spread = gates.std(axis=0)
    print(f"per-channel std across samples, top 3: {np.sort(spread)[-3:][::-1].round(4)}")
    print("Different inputs already receive different gates before any training.\n")

    saturated = replace(model, params=tuple(
        replace(p, bias=np.full_like(p.bias, 30.0)) if p.name == "attn_expand" else p
        for p in model.params))
    open_gates = gates_for(saturated, batch)
    print(f"with the expand bias pinned at +30, min gate = {open_gates.min():.9f}")

    twin = Model(config=replace(model.config, attention=None),
                 params=tuple(p for p in model.params if not p.name.startswith("attn_")),
                 frozen=frozenset())
    diff = np.abs(forward(saturated, batch) - forward(twin, batch)).max()
    print(f"saturated model vs attention-free twin, max |prob diff| = {diff:.2e}")
    print("Fully open gates make the block an exact pass-through.")


if __name__ == "__main__":
    main()
