"""Kernel conformance: fused kernels == scalar reference, bit for bit.

Each unit's scalar ``step()`` is the executable specification; the
flowsheet sweeps the fused kernels of :mod:`repro.plant.kernels`
instead.  The kernels must reproduce *exactly* the same floats -- not
approximately: the golden workload digests hash every sensor reading,
so a single ULP of drift anywhere breaks reproducibility.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plant.components import Stream
from repro.plant.gas_plant import NaturalGasPlant


def scalar_plant() -> NaturalGasPlant:
    """A plant whose flowsheet sweeps every unit's scalar ``step()``
    (the reference) instead of the fused kernels."""
    plant = NaturalGasPlant()
    flowsheet = plant.flowsheet
    flowsheet._compiled_steps = lambda: tuple(u.step
                                              for u in flowsheet.units)
    return plant


def plant_state(plant: NaturalGasPlant) -> dict:
    """Every float the plant exposes, exactly as produced."""
    state = dict(plant.flowsheet.snapshot())
    state["stream_table"] = plant.stream_table()
    state["inlet_sep_holdup"] = list(plant.inlet_sep.holdup)
    state["lts_holdup"] = list(plant.lts.holdup)
    state["drum_holdup"] = list(plant.depropanizer.drum_holdup)
    state["sump_holdup"] = list(plant.depropanizer.sump_holdup)
    state["overflow"] = (plant.inlet_sep.overflow_mol,
                         plant.lts.overflow_mol)
    state["blow_by"] = (plant.inlet_sep.blow_by_flow,
                        plant.lts.blow_by_flow)
    state["pressures"] = (plant.sales_header.pressure_kpa,
                          plant.depropanizer.pressure_kpa)
    state["valves"] = [(v.opening_pct, v.command_pct)
                       for v in (plant.inlet_sep_valve, plant.lts_valve,
                                 plant.sales_valve, plant.distillate_valve,
                                 plant.bottoms_valve,
                                 plant.deprop_gas_valve)]
    return state


def feed_at(nominal: Stream, flow: float) -> Stream:
    """``nominal``'s feed gas at another molar flow."""
    return Stream(flow, nominal.composition, 25.0, 4000.0)


def drive(plant: NaturalGasPlant, steps: int) -> list[dict]:
    """A workout hitting every kernel branch: steady stepping, feed
    loss (empty-stream paths), feed surge (blow-by + overflow),
    actuator slams, and recovery."""
    plant.enable_local_control(exclude=("lts_level",))
    plant.flowsheet.write("lts_liquid_valve_pct", 11.5)
    snapshots = []
    nominal_feed1 = plant.feed1
    for k in range(steps):
        if k == steps // 4:          # feed 1 lost: empty/low-flow paths
            plant.feed1 = feed_at(nominal_feed1, 0.0)
        if k == steps // 2:          # surge: blow-by and overflow paths
            plant.feed1 = feed_at(nominal_feed1, 240.0)
            plant.flowsheet.write("lts_liquid_valve_pct", 95.0)
        if k == (3 * steps) // 4:    # recovery
            plant.feed1 = nominal_feed1
            plant.flowsheet.write("lts_liquid_valve_pct", 11.5)
        plant.step(0.5)
        if k % 7 == 0:
            snapshots.append(plant_state(plant))
    snapshots.append(plant_state(plant))
    return snapshots


def test_kernels_match_scalar_reference_exactly():
    reference = drive(scalar_plant(), steps=400)
    fused = drive(NaturalGasPlant(), steps=400)
    assert fused == reference


def test_kernels_settle_identically():
    ref = scalar_plant()
    ref_snap = ref.settle(duration_sec=300.0)
    fused = NaturalGasPlant()
    fused_snap = fused.settle(duration_sec=300.0)
    assert fused_snap == ref_snap
    assert fused.stream_table() == ref.stream_table()


ACTUATORS = NaturalGasPlant().flowsheet.actuator_names()
# Highest flow (mol/s) drawn per feed.  Feed 2 is stepped too: only
# with both feeds at 0 does the train downstream run empty.
FEEDS = {"feed1": 240.0, "feed2": 120.0}


def _between(lo: float, hi: float):
    """Floats in ``[lo, hi]``, the bounds themselves drawn often."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))


_WRITE = st.one_of(
    *(st.tuples(st.just(feed), _between(0.0, high))
      for feed, high in sorted(FEEDS.items())),
    st.tuples(st.sampled_from(ACTUATORS), _between(0.0, 100.0)),
)
# Initial inventory as a multiple of the stock (half-full) holdup:
# 0 starts a vessel empty, anything past 2 starts it overflowing.  From
# half full, 300 steps seldom drain a vessel dry (blow-by) or
# fill one to overflow, so those branches need the drawn inventory.
_FILL = _between(0.0, 2.5)


def holdups(plant: NaturalGasPlant) -> list[tuple[object, str]]:
    """The plant's four liquid inventories as ``(unit, attribute)``."""
    return [(plant.inlet_sep, "holdup"), (plant.lts, "holdup"),
            (plant.depropanizer, "drum_holdup"),
            (plant.depropanizer, "sump_holdup")]


@st.composite
def schedules(draw):
    """``(n_steps, local_control, fills, {step: [(target, value)]})``:
    initial inventories, then feed flow steps and actuator writes
    applied before a step."""
    n_steps = draw(st.integers(1, 300))
    fills = draw(st.lists(_FILL, min_size=4, max_size=4))
    writes = draw(st.dictionaries(st.integers(0, n_steps - 1),
                                  st.lists(_WRITE, min_size=1, max_size=3),
                                  max_size=12))
    return n_steps, draw(st.booleans()), fills, writes


@settings(max_examples=30, deadline=None)
@given(schedules())
def test_kernels_match_scalar_reference_under_random_schedules(schedule):
    n_steps, local_control, fills, writes = schedule
    plants = (NaturalGasPlant(), scalar_plant())
    nominal = {name: getattr(plants[0], name) for name in FEEDS}
    for plant in plants:
        for (unit, attr), fill in zip(holdups(plant), fills):
            setattr(unit, attr, [h * fill for h in getattr(unit, attr)])
        if local_control:
            plant.enable_local_control()
    for k in range(n_steps):
        for target, value in writes.get(k, ()):
            for plant in plants:
                if target in FEEDS:
                    setattr(plant, target, feed_at(nominal[target], value))
                else:
                    plant.flowsheet.write(target, value)
        for plant in plants:
            plant.step(0.5)
        assert plant_state(plants[0]) == plant_state(plants[1]), k


def test_snapshot_values_are_plain_floats():
    plant = NaturalGasPlant()
    plant.enable_local_control()
    for _ in range(20):
        plant.step(0.5)
    for name, value in plant.flowsheet.snapshot().items():
        assert type(value) is float, name
    for stream in plant.stream_table().values():
        for key, value in stream.items():
            assert isinstance(value, float), key
