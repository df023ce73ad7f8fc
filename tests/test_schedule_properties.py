"""Property tests: generation schedules keep the register normalized, and
the text form of a schedule writes one line per step."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasebus.config_io import example_config_dict, parse_config
from phasebus.protocols import (
    BUS_INIT_GROUND,
    BUS_INIT_PLUS,
    W_MODE_FRACTION_N3,
    W_MODE_GENERAL,
    BusExcite,
    BusReset,
    BusRotation,
    PulseSchedule,
    ResonantWindow,
    bell_schedule,
    cluster_sequence,
    execute_schedule,
    w_schedule,
)

PROPERTY = settings(max_examples=100, deadline=None)


@st.composite
def generation_schedules(draw):
    """A device of 2..6 TLSs and one W, Bell or cluster schedule on it."""
    num_tls = draw(st.integers(2, 6))
    config = parse_config(example_config_dict(num_tls, draw(st.integers(0, 2**32 - 1))))
    kind = draw(st.sampled_from(["w", "bell", "cluster"]))
    if kind == "w":
        n = draw(st.integers(1, num_tls))
        modes = [W_MODE_GENERAL] + ([W_MODE_FRACTION_N3] if n == 3 else [])
        schedule = w_schedule(config, n, draw(st.sampled_from(modes)))
    elif kind == "bell":
        j, k = draw(st.permutations(range(1, num_tls + 1)))[:2]
        schedule = bell_schedule(config, j, k)
    else:
        n = draw(st.integers(2, num_tls))
        bus_init = draw(st.sampled_from([BUS_INIT_GROUND, BUS_INIT_PLUS]))
        schedule = cluster_sequence(config, n, bus_init)
    return config, schedule


@PROPERTY
@given(generation_schedules())
def test_execution_preserves_norm(case):
    config, schedule = case
    out = execute_schedule(schedule, config)
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


instructions = st.one_of(
    st.builds(
        ResonantWindow,
        st.integers(1, 10),
        st.floats(0.0, 1e-6, allow_subnormal=False),
    ),
    st.builds(
        BusRotation,
        st.sampled_from(["x", "y", "z"]),
        st.floats(allow_nan=False, allow_infinity=False),
    ),
    st.just(BusReset()),
    st.just(BusExcite()),
)


KEYWORDS = {ResonantWindow: "WINDOW", BusRotation: "ROT", BusReset: "RESET", BusExcite: "EXCITE"}


@PROPERTY
@given(st.lists(instructions, max_size=30))
def test_text_one_line_per_step(steps):
    lines = PulseSchedule(tuple(steps)).to_text().splitlines()
    assert len(lines) == len(steps)
    for line, step in zip(lines, steps):
        assert line.split()[0] == KEYWORDS[type(step)]
