"""Tour of the reverse-mode gradient engine.

Everything in the model trains through this one module: tensors record
the operations applied to them, and backward() replays the graph in
reverse. The finite-difference checker is the house oracle for every
hand-written backward rule.
"""

import numpy as np

from mrgsrec import autodiff as ad

rng = np.random.Generator(np.random.PCG64(0))

# --- basics ---------------------------------------------------------------
w = ad.parameter(rng.normal(size=(4, 3)))
x = ad.Tensor(rng.normal(size=(5, 4)))           # constant input
logits = ad.matmul(x, w)
loss = ad.cross_entropy(logits, np.array([0, 1, 2, 0, 1]))  # one target per row
loss.backward()
print("dL/dw shape:", w.grad.shape)

# gradient of ||v||^2 / 2 is v itself
v = ad.parameter(rng.normal(size=(6,)))
(g,) = ad.grad(ad.mul(ad.tsum(ad.square(v)), 0.5), [v])
print("quadratic check:", np.allclose(g, v.data))

# --- numerically safe cross-entropy ----------------------------------------
# every training objective is one cross_entropy call; the row max is
# subtracted first, so a target whose probability underflows to 0 still
# gets a finite loss: -log softmax([700, -700, 0])[1] = 1400
extreme = ad.Tensor(np.array([[700.0, -700.0, 0.0]]))
print("cross-entropy at |x|=700 is finite:",
      ad.cross_entropy(extreme, np.array([1])).item())

# --- masked attention: a key outside a row's mask never reaches it --------
# ad.attention is one op with a closed-form backward: a pre-norm attention
# sub-layer (layer norm, q, k and v projections, masked softmax, output
# projection). Under a causal mask row i reads keys 0..i only, so changing
# the last row leaves every earlier row's output exactly as it was
x = rng.normal(size=(4, 4))
weights = [np.ones(4), np.zeros(4)] + [rng.normal(size=(4, 4)) for _ in range(4)]
mask = np.tril(np.ones((4, 4), dtype=bool))
before = ad.attention(x, *weights, mask, n_heads=2).data
x[3] += 30.0
after = ad.attention(x, *weights, mask, n_heads=2).data
print("rows that cannot see the changed key are unchanged:",
      bool((before[:3] == after[:3]).all()))
print("the row that sees it changed:", bool((before[3] != after[3]).any()))

# --- the finite-difference oracle ------------------------------------------
# checked here on ad.feed_forward, the two-layer ReLU block that both the
# encoder's feed-forward sub-layer and the fusion block run on
params = {"w1": ad.parameter(rng.normal(size=(5, 3))),
          "b1": ad.parameter(rng.normal(size=(5,))),
          "w2": ad.parameter(rng.normal(size=(2, 5))),
          "b2": ad.parameter(rng.normal(size=(2,)))}
# the loss must be a pure function of the parameter data, so fix the input
fixed_input = ad.Tensor(rng.normal(size=(4, 3)))


def pure_loss():
    h = ad.feed_forward(fixed_input, params["w1"], params["b1"],
                        params["w2"], params["b2"])
    return ad.tsum(ad.square(h))


report = ad.finite_difference_check(pure_loss, params)
for name, entry in report.items():
    print(f"finite-difference {name}: max_rel_error="
          f"{entry['max_rel_error']:.2e} passed={entry['passed']}")
