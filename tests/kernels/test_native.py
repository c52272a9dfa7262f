"""The optional compiled kernel tier: probe, fallback, and bit-identity.

Two groups:

* **probe tests** run everywhere — they exercise detection state
  (``REPRO_NATIVE`` overrides, unavailability reasons, the transparent
  fallback of ``resolve_tier_kernels`` and ``repro.color``), which must
  behave identically whether or not a compiler exists;
* **bit-identity tests** run only where a backend is usable (skipped
  cleanly otherwise) — hypothesis equivalence of the compiled
  scatter-OR / first-free kernels against the vectorized reference,
  including dtype, validation order, exception types *and messages*, and
  observability counters.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.graph import CSRGraph, erdos_renyi
from repro.kernels import (
    NativeUnavailable,
    capabilities,
    preferred_tier,
    resolve_tier_kernels,
)
from repro.kernels import bitmatrix, native

common = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

HAVE_NATIVE = native.available()
needs_native = pytest.mark.skipif(
    not HAVE_NATIVE,
    reason=f"native tier unavailable: {native.unavailable_reason()}",
)


@pytest.fixture
def native_env(monkeypatch):
    """Set ``REPRO_NATIVE`` and reset detection; re-probes on teardown."""

    def set_env(value):
        if value is None:
            monkeypatch.delenv("REPRO_NATIVE", raising=False)
        else:
            monkeypatch.setenv("REPRO_NATIVE", value)
        native.refresh()

    yield set_env
    native.refresh()  # next available() call re-probes the restored env


# ----------------------------------------------------------------------
# The capability probe (runs with or without a compiler)
# ----------------------------------------------------------------------


def test_disabled_via_env(native_env):
    native_env("0")
    assert not native.available()
    assert "REPRO_NATIVE" in native.unavailable_reason()
    assert native.backend_info() is None
    with pytest.raises(NativeUnavailable) as exc:
        native.require()
    # The error must say why and how to fix it.
    msg = str(exc.value)
    assert "REPRO_NATIVE" in msg
    assert "cc/gcc/clang" in msg


@pytest.mark.parametrize("value", ["off", "false", "none", "disabled"])
def test_disabled_spellings(native_env, value):
    native_env(value)
    assert not native.available()


def test_unknown_backend_name_is_unavailable(native_env):
    native_env("fpga")
    assert not native.available()
    assert "fpga" in native.unavailable_reason()
    assert "cc" in native.unavailable_reason()
    # "numba" is not a backend: it gets the unknown-name reason too.
    native_env("numba")
    assert not native.available()
    assert "names no known backend" in native.unavailable_reason()


def test_capabilities_shape(native_env):
    native_env("0")
    caps = capabilities()
    assert caps["tiers"] == ("vectorized", "python")
    assert caps["native_available"] is False
    assert caps["native_backend"] is None
    assert "REPRO_NATIVE" in caps["native_reason"]
    assert preferred_tier() == "vectorized"


def test_resolve_tier_falls_back_when_disabled(native_env):
    native_env("0")
    scatter, first_free = resolve_tier_kernels("native")
    assert scatter is bitmatrix.scatter_or_colors
    assert first_free is bitmatrix.first_free_colors_packed


def test_resolve_tier_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel tier"):
        resolve_tier_kernels("fpga")


def test_color_falls_back_silently_when_disabled(native_env):
    g = erdos_renyi(60, 0.1, seed=3)
    reference = repro.color(g, backend="vectorized")
    native_env("0")
    out = repro.color(g, backend="native")
    assert np.array_equal(out.colors, reference.colors)


def test_native_strict_raises_eagerly_when_disabled(native_env):
    g = erdos_renyi(20, 0.1, seed=3)
    native_env("0")
    with pytest.raises(NativeUnavailable, match="native kernel tier unavailable"):
        repro.color(g, backend="native", native_strict=True)


def test_native_strict_is_inert_on_other_backends(native_env):
    g = erdos_renyi(20, 0.1, seed=3)
    native_env("0")
    out = repro.color(g, backend="vectorized", native_strict=True)
    assert out.colors.shape == (20,)


def test_refresh_forgets_detection(native_env):
    native_env("0")
    assert not native.available()
    native_env(None)
    # After refresh the probe reruns under the new environment, so the
    # env-disabled verdict must be gone: either a backend is found, or
    # the reason is now about the toolchain, not the override.
    if native.available():
        assert native.unavailable_reason() is None
    else:
        assert "REPRO_NATIVE" not in native.unavailable_reason()


# ----------------------------------------------------------------------
# Bit-identity vs the vectorized reference (needs a usable backend)
# ----------------------------------------------------------------------


@needs_native
def test_backend_info_shape():
    info = native.backend_info()
    assert info["name"] == "cc"
    assert info["version"]
    caps = capabilities()
    assert caps["tiers"][0] == "native"
    assert caps["native_backend"] == info
    assert preferred_tier() == "native"


@needs_native
@common
@given(data=st.data())
def test_scatter_or_bit_identity(data):
    num_rows = data.draw(st.integers(1, 12), label="num_rows")
    num_words = data.draw(st.integers(1, 3), label="num_words")
    n = data.draw(st.integers(0, 50), label="n_updates")
    # Negative rows exercise NumPy wraparound; color 0 is the dead slot.
    rows = np.array(
        data.draw(
            st.lists(
                st.integers(-num_rows, num_rows - 1), min_size=n, max_size=n
            )
        ),
        dtype=np.int64,
    )
    colors = np.array(
        data.draw(
            st.lists(
                st.integers(0, num_words * 64), min_size=n, max_size=n
            )
        ),
        dtype=np.int64,
    )
    ref = bitmatrix.scatter_or_colors(rows, colors, num_rows, num_words)
    got = native.scatter_or_colors(rows, colors, num_rows, num_words)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@needs_native
@common
@given(data=st.data())
def test_first_free_bit_identity(data):
    num_rows = data.draw(st.integers(1, 10), label="num_rows")
    num_words = data.draw(st.integers(1, 3), label="num_words")
    # Avoid the all-ones saturated row here (covered separately): keep the
    # last word below full.
    words = data.draw(
        st.lists(
            st.lists(
                st.integers(0, 2**64 - 1), min_size=num_words, max_size=num_words
            ),
            min_size=num_rows,
            max_size=num_rows,
        )
    )
    states = np.array(words, dtype=np.uint64)
    states[:, -1] &= np.uint64(2**63 - 1)  # keep one free bit per row
    ref = bitmatrix.first_free_colors_packed(states)
    got = native.first_free_colors_packed(states)
    assert got.dtype == ref.dtype
    assert np.array_equal(got, ref)


@needs_native
def test_scatter_error_message_parity():
    rows = np.array([0, 1], dtype=np.int64)
    for bad_colors, exc_type in [
        (np.array([1, 70], dtype=np.int64), ValueError),   # overflow word 1
        (np.array([1], dtype=np.int64), ValueError),       # shape mismatch
    ]:
        with pytest.raises(exc_type) as ref_exc:
            bitmatrix.scatter_or_colors(rows, bad_colors, 2, 1)
        with pytest.raises(exc_type) as nat_exc:
            native.scatter_or_colors(rows, bad_colors, 2, 1)
        assert str(nat_exc.value) == str(ref_exc.value)

    bad_rows = np.array([0, 7], dtype=np.int64)
    colors = np.array([1, 2], dtype=np.int64)
    with pytest.raises(IndexError) as ref_exc:
        bitmatrix.scatter_or_colors(bad_rows, colors, 2, 1)
    with pytest.raises(IndexError) as nat_exc:
        native.scatter_or_colors(bad_rows, colors, 2, 1)
    assert str(ref_exc.value) in str(nat_exc.value)


@needs_native
def test_scatter_overflow_checked_before_writes():
    # The overflow must be raised before any OR lands (two-pass contract):
    # a pre-filled out= buffer stays untouched on failure.
    out = np.zeros((2, 1), dtype=np.uint64)
    rows = np.array([0, 1], dtype=np.int64)
    colors = np.array([3, 65], dtype=np.int64)
    with pytest.raises(ValueError):
        native.scatter_or_colors(rows, colors, 2, 1, out=out)
    assert not out.any()


@needs_native
def test_first_free_saturation_message_parity():
    for num_words in (1, 2):
        states = np.full((2, num_words), 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        with pytest.raises(OverflowError) as ref_exc:
            bitmatrix.first_free_colors_packed(states)
        with pytest.raises(OverflowError) as nat_exc:
            native.first_free_colors_packed(states)
        assert str(nat_exc.value) == str(ref_exc.value)


@needs_native
def test_first_free_rejects_1d():
    with pytest.raises(ValueError, match="matrix"):
        native.first_free_colors_packed(np.zeros(4, dtype=np.uint64))


@needs_native
def test_scatter_out_accumulates_contiguous():
    rows = np.array([0, 1], dtype=np.int64)
    out = np.zeros((2, 1), dtype=np.uint64)
    out[0, 0] = 0b1000
    result = native.scatter_or_colors(
        rows, np.array([1, 2], dtype=np.int64), 2, 1, out=out
    )
    assert result is out
    # color c sets bit c-1: 0b1000 | color1 -> 0b1001; color2 -> 0b0010
    assert out[0, 0] == 0b1001 and out[1, 0] == 0b0010


@needs_native
def test_scatter_out_accumulates_noncontiguous():
    # A strided view takes the fold-into-temp path; semantics must match
    # the vectorized kernel's in-place OR exactly.
    base_ref = np.zeros((4, 2), dtype=np.uint64)
    base_nat = np.zeros((4, 2), dtype=np.uint64)
    base_ref[::2, 0] = 0b1
    base_nat[::2, 0] = 0b1
    rows = np.array([0, 1, 1], dtype=np.int64)
    colors = np.array([2, 65, 3], dtype=np.int64)
    bitmatrix.scatter_or_colors(rows, colors, 2, 2, out=base_ref[::2])
    native.scatter_or_colors(rows, colors, 2, 2, out=base_nat[::2])
    assert np.array_equal(base_nat, base_ref)


@needs_native
def test_word_boundary_colors():
    # Colors 63/64/65 straddle the first word boundary.
    rows = np.zeros(3, dtype=np.int64)
    colors = np.array([63, 64, 65], dtype=np.int64)
    ref = bitmatrix.scatter_or_colors(rows, colors, 1, 2)
    got = native.scatter_or_colors(rows, colors, 1, 2)
    assert np.array_equal(got, ref)
    assert native.first_free_colors_packed(got)[0] == 1


@needs_native
def test_obs_counters_match_vectorized():
    from repro.obs import Registry, use_registry

    rows = np.array([0, 1, 2, 0], dtype=np.int64)
    colors = np.array([1, 2, 0, 3], dtype=np.int64)
    counters = {}
    for tier_name, scatter, first_free in [
        ("vectorized", bitmatrix.scatter_or_colors,
         bitmatrix.first_free_colors_packed),
        ("native", native.scatter_or_colors, native.first_free_colors_packed),
    ]:
        reg = Registry()
        with use_registry(reg):
            states = scatter(rows, colors, 3, 1)
            first_free(states)
        counters[tier_name] = dict(reg.counters)
    assert counters["native"] == counters["vectorized"]


@needs_native
def test_coloring_matches_on_dataset_standin():
    g = sorted_standin()
    a = repro.color(g, backend="vectorized")
    b = repro.color(g, backend="native", native_strict=True)
    assert np.array_equal(a.colors, b.colors)
    assert b.n_colors == a.n_colors


def sorted_standin():
    from repro.experiments import load_dataset

    return load_dataset("EF", preprocessed=True)


@needs_native
def test_microbatch_union_parity_on_native():
    # The batcher's provable-identity argument holds tier-independently;
    # pin it for the native tier the same way the service tests pin
    # vectorized.
    from repro.service.batcher import disjoint_union

    gs = [erdos_renyi(30, 0.2, seed=s) for s in range(3)]
    union, spans = disjoint_union(gs)
    out = repro.color(union, backend="native")
    for g, (lo, hi) in zip(gs, spans):
        solo = repro.color(g, backend="native")
        assert np.array_equal(out.colors[lo:hi], solo.colors)
