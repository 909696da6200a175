"""
Radio links of a relay chain: path loss, gains, SIR, edge rates
===============================================================

Builds the default deployment (one base station, eight relay UAVs, one
user, seven interference sources) and walks down the chain printing what
the channel model says about every hop.
"""

import numpy as np

from aerolink import (build_default_scenario, build_state, edge_rate,
                      link_gain, sir)

s = build_default_scenario()
st = build_state(s)

print(f"{s.n_uavs} relay UAVs between bs(0) and ue({s.destination}), "
      f"{s.n_si} interference sources, budget {s.p_max_w * 1e3:.0f} mW per node")
print()

# every chain hop: distance, air-to-air or air-to-ground, loss, symmetric rate
print(f"{'edge':>8} {'dist_m':>8} {'class':>6} {'loss_dB':>8} "
      f"{'SIR_fwd':>10} {'rate_bit_s':>11}")
for i, j in s.topology:
    g = link_gain(i, j, st)
    kind = "a2a" if g.a2a else "a2g"
    print(f"{i:>4}-{j:<3} {g.distance_m:>8.2f} {kind:>6} {g.path_loss_db:>8.2f} "
          f"{sir(i, j, st):>10.3e} {edge_rate(i, j, st):>11.2f}")

# the aggregate interference floor each receiver lives with
print()
print("received interference from the fixed sources, per chain node:")
floor = st.interference_w[:s.n_primary]
for node, level in enumerate(floor):
    bar = "#" * int(round(60 * level / floor.max()))
    print(f"  node {node:>2} {level:.3e} W {bar}")

# doubling every source's power halves any SIR the sources dominate
import dataclasses

twice = dataclasses.replace(s, si_powers_w=s.si_powers_w * 2.0)
print()
print("SIR scales inversely with source power: bs->uav1 at 1x and 2x SI power")
print(f"  1x: {sir(0, 1, st):.6e}")
print(f"  2x: {sir(0, 1, build_state(twice)):.6e}")
