"""Bad input to the package functions raises ValueError with a message that
names the fault, before any work."""

import re

import pytest

from channelmoments import channels as ch
from channelmoments import localized as loc
from channelmoments import moments as mo
from channelmoments import symmgroup as sg
from channelmoments import twirlsim as tw
from channelmoments import weingarten as wg
from channelmoments.specs import HAAR, CircuitSpec, EnsembleSpec, haar


def _concatenate_zero_times():
    return mo.concatenate(mo.transfer(haar(2, 2)), mo.gram(2, 2), 0)


def _composite(ensemble, generator=None):
    return tw.composite_noise_norm(ensemble, ch.NoiseModel.uniform(2, 0.1), 1, 1, generator)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ch.standard_noise("foo", 0.1), "unknown noise kind 'foo'"),
        (lambda: ch.pauli_string(2, "X"), "need one label per qubit"),
        (lambda: ch.NoiseModel(3, {}, {}), "noise model requires a qubit dimension (d = 2^n)"),
        (lambda: ch.NoiseModel(2, {"Q": 0.1}, {}), "unknown basis label 'Q'"),
        (lambda: mo.gram(2, 2, basis="foo"), "unknown basis 'foo'"),
        (_concatenate_zero_times, "k must be >= 1"),
        (lambda: mo.exact_t2_chaar(0, 2, 1), "need k >= 1, d >= 2, dE >= 1"),
        (lambda: mo.exact_t2_chaar(1, 1, 1), "need k >= 1, d >= 2, dE >= 1"),
        (lambda: mo.exact_t2_chaar(1, 2, 0), "need k >= 1, d >= 2, dE >= 1"),
        (lambda: mo.invariance_checks(haar(2, 2), haar(3, 2)), "specs must share (t, d)"),
        (lambda: EnsembleSpec("foo", d=2, t=2), "unknown ensemble kind 'foo'"),
        (lambda: EnsembleSpec(HAAR, d=1, t=2), "system dimension must be >= 2"),
        (lambda: CircuitSpec(n=1, ansatz="foo"), "unknown ansatz 'foo'"),
        (lambda: CircuitSpec(n=1, gamma=-0.1), "gamma must lie in [0, 1]"),
        (lambda: CircuitSpec(n=1, gamma=1.5), "gamma must lie in [0, 1]"),
        (lambda: CircuitSpec(n=1, noise_placement="foo"), "unknown noise placement 'foo'"),
        (lambda: sg.symmetric_group(0), "order must be >= 1"),
        (lambda: _composite("foo"), "unknown ensemble 'foo'"),
        (lambda: _composite(tw.SINGLE_GENERATOR), "single-generator ensemble needs a generator label"),
        (lambda: _composite(tw.SINGLE_GENERATOR, "XX"),
         "generator label length must match the noise dimension"),
        (lambda: wg.jucys_murphy_sum(0, 2), "t and d must be >= 1"),
        (lambda: wg.jucys_murphy_sum(2, 0), "t and d must be >= 1"),
        (lambda: loc.scaling_exponents(HAAR, 2, (3, 2)), "d_pair must be increasing"),
        (lambda: loc.scaling_exponents(HAAR, 2, (3, 3)), "d_pair must be increasing"),
    ],
)
def test_bad_argument_raises_named_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
