"""
Why certified bounds matter on slowly mixing chains
====================================================

A five-state chain whose transitions mostly shuffle probability mass
around before committing: classic value iteration converges so slowly
that its usual stopping rule gives up long before the answer is right,
interval iteration gets the right answer but needs hundreds of thousands
of sweeps, and the coupled certified iteration closes the case in three.
"""

import soundreach as sr

# The chain: from the initial state, progress happens with probability
# 0.01 per step, everything else loops back.  Once the third state is
# reached, 0.3 of the mass hits the goal, 0.1 is lost for good, and 0.6
# starts over.  The true reachability probability is 0.3/0.4 = 0.75.
model = sr.validate_model(
    [
        [{1: 0.01, 0: 0.99}],
        [{2: 0.01, 0: 0.99}],
        [{4: 0.3, 3: 0.1, 0: 0.6}],
        [{3: 1.0}],
        [{4: 1.0}],
    ],
    labels={"init": [0], "goal": [4], "lost": [3]},
)

# Plain value iteration stops when successive iterates differ by less
# than epsilon.  On this chain the iterates creep upward by tiny steps,
# so the rule fires while the value is still far away from 0.75.
vi = sr.solve(model, "goal", sr.SolverConfig(method=sr.Method.VI, epsilon=1e-6))
print(f"value iteration:    {vi.value:.10f} after {vi.iterations} sweeps"
      f"  (true answer 0.75 — off by {0.75 - vi.value:.2e}, and no warning)")

# Interval iteration fixes the correctness problem by running a lower
# and an upper iterate and stopping on their gap.  Sound, but the gap
# contracts at the chain's mixing speed.  This takes a few seconds.
ii = sr.solve(model, "goal", sr.SolverConfig(method=sr.Method.II, epsilon=1e-6))
print(f"interval iteration: {ii.value:.10f} after {ii.iterations} sweeps"
      f"  (certified to ±1e-6, but at a price)")

# The coupled iteration tracks, next to the k-step goal probability x,
# the probability y of still being undecided after k steps.  Whenever
# every undecided state has some escape mass, the ratios x/(1-y) bound
# the true values from both sides — and on this chain those ratios all
# agree after three steps.  Until then the bounds stay where the query
# started them: [0, 1], which holds every probability.
svi = sr.solve(model, "goal", sr.SolverConfig(epsilon=1e-6, record_trace=True))
print(f"certified coupled:  {svi.value:.10f} after {svi.iterations} sweeps")
for row in svi.trace:
    print(f"    k={row.k}: bounds [{row.lower:.6f}, {row.upper:.6f}]"
          f"  undecided mass {row.y_init:.5f}")

# The same epsilon, three radically different costs:
print()
print(f"sweeps needed: vi={vi.iterations} (wrong), "
      f"ii={ii.iterations}, coupled={svi.iterations}")
