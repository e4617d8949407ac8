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

# --- masked attention: probability mass only on allowed keys ---------------
# ad.attention is one op with a closed-form backward; with identity keys and
# values its output rows are the attention probabilities themselves
scores = ad.Tensor(rng.normal(size=(2, 4)) * 30)
mask = np.array([[True, False, True, True], [True, True, False, False]])
mp = ad.attention(scores, np.eye(4), np.eye(4), mask).data
print("masked entries get exactly 0:", bool((mp[~mask] == 0).all()))

# --- the finite-difference oracle ------------------------------------------
params = {"w": ad.parameter(rng.normal(size=(3, 3))),
          "b": ad.parameter(rng.normal(size=(3,)))}
# the loss must be a pure function of the parameter data, so fix the input
fixed_input = ad.Tensor(rng.normal(size=(4, 3)))


def pure_loss():
    h = ad.relu(ad.add(ad.matmul(fixed_input, params["w"]), params["b"]))
    return ad.tsum(ad.square(h))


report = ad.finite_difference_check(pure_loss, params)
for name, entry in report.items():
    print(f"finite-difference {name}: max_rel_error="
          f"{entry['max_rel_error']:.2e} passed={entry['passed']}")
