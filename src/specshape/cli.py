"""Batch front-end: JSON scenario files in, CSV or JSON results out.

Scenario files carry a "kind" discriminator (uncoded, multilegacy, coded,
mimo). Numeric parameters may be given in dB by suffixing the key with
"_db"; conversion to linear happens once at load and unknown keys are
rejected. Commands:

    specshape rate-curve  scenario.json -o out.csv
    specshape prelog-mesh scenario.json -o out.csv
    specshape solve       scenario.json -o out.json

Exit codes: 0 success, 2 input error, 3 infeasible scenario, 4 solver
failure: non-convergence, a non-finite result, or any other ValueError the
computation raises once the file has been read and checked. Output files are
opened only after the computation succeeds and every number of its result is
found finite, removed if writing them fails, and written with fixed
12-significant-digit formatting so identical inputs produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import coded as coded_mod
from . import mimo as mimo_mod
from . import multilegacy as multi_mod
from . import shaping
from .errors import InfeasibleScenarioError, SolverError
from .estimation import UncodedScenario
from .spectra import (FrequencyGrid, Spectrum, ar1_spectrum, flat_spectrum,
                      make_grid, mean_power, tabulated_spectrum)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4

_FLOAT_MAX = sys.float_info.max
_MAX_SWEEP_POINTS = 10_000
_MAX_GRID_POINTS = 1 << 20


class SchemaError(ValueError):
    """Scenario file violates the expected schema."""


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _is_number(v) -> bool:
    # abs(v) <= max is False for NaN, infinities and ints beyond float range
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= _FLOAT_MAX


def _finite(x: float) -> float:
    """Pass a result number through; NaN and infinities must not reach a file."""
    if not math.isfinite(x):
        raise SolverError("the result is not finite")
    return x


class _Params:
    """Strict key extraction with one-shot dB conversion."""

    def __init__(self, doc: dict, context: str):
        if not isinstance(doc, dict):
            raise SchemaError(f"{context}: expected a JSON object")
        self._doc = dict(doc)
        self._ctx = context

    def value(self, name: str) -> float:
        has_lin, has_db = name in self._doc, f"{name}_db" in self._doc
        if has_lin and has_db:
            raise SchemaError(f"{self._ctx}: give either {name} or {name}_db, not both")
        if has_lin:
            v = self._doc.pop(name)
        elif has_db:
            try:
                v = db_to_linear(self._number(f"{name}_db", self._doc.pop(f"{name}_db")))
            except OverflowError as e:
                raise SchemaError(f"{self._ctx}: {name}_db is out of range") from e
        else:
            raise SchemaError(f"{self._ctx}: missing required parameter {name}")
        return self._number(name, v)

    def raw(self, name: str, required: bool = True):
        if name in self._doc:
            return self._doc.pop(name)
        if required:
            raise SchemaError(f"{self._ctx}: missing required key {name}")
        return None

    def has(self, name: str) -> bool:
        return name in self._doc or f"{name}_db" in self._doc

    def finish(self):
        if self._doc:
            raise SchemaError(f"{self._ctx}: unknown keys {sorted(self._doc)}")

    def _number(self, name, v) -> float:
        if not _is_number(v):
            raise SchemaError(f"{self._ctx}: {name} must be a finite number")
        return float(v)


def _load_doc(path: str) -> dict:
    text = Path(path).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: malformed JSON ({e})") from e
    except RecursionError as e:
        raise SchemaError(f"{path}: nested too deeply") from e
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    return doc


def _legacy_spectrum(p: _Params, grid: FrequencyGrid) -> Spectrum:
    values = p.raw("phi_s_values", required=False)
    eps = p.raw("epsilon", required=False)
    if values is not None:
        if eps is not None:
            raise SchemaError("give either epsilon or phi_s_values, not both")
        return tabulated_spectrum(grid, _array(values, "phi_s_values"))
    variance = p.value("sigma2_s")
    if eps is not None:
        return ar1_spectrum(grid, variance, p._number("epsilon", eps))
    return flat_spectrum(grid, variance)


def _power_sweep(p: _Params) -> tuple[np.ndarray, np.ndarray]:
    sw = _Params(p.raw("power_sweep_db"), "power_sweep_db")
    start = sw._number("start", sw.raw("start"))
    stop = sw._number("stop", sw.raw("stop"))
    points = sw.raw("points")
    sw.finish()
    if not isinstance(points, int) or isinstance(points, bool) or points < 0:
        raise SchemaError("power_sweep_db.points must be a nonnegative integer")
    if points > _MAX_SWEEP_POINTS:
        raise SchemaError(f"power_sweep_db.points must be at most {_MAX_SWEEP_POINTS}")
    db = np.linspace(start, stop, points)
    with np.errstate(over="ignore"):
        powers = 10.0 ** (db / 10.0)
    if not np.all(np.isfinite(powers)):
        raise SchemaError("power_sweep_db: powers out of range")
    return db, powers


def _uncoded_scenario(p: _Params, grid: FrequencyGrid, P: float = 1.0) -> UncodedScenario:
    phi_s = _legacy_spectrum(p, grid)
    noise_values = p.raw("phi_n_values", required=False)
    if noise_values is not None:
        phi_n = tabulated_spectrum(grid, _array(noise_values, "phi_n_values"))
    else:
        phi_n = flat_spectrum(grid, p.value("sigma2_n"))
    sc = UncodedScenario(a=p.value("a"), phi_s=phi_s, phi_n=phi_n, D=p.value("D"), P=P)
    # a sample of zero floor costs no MSE, so the rate over it is unbounded
    if not (sc.base() > 0).all():
        raise SchemaError("the noise floor a*phi_s + phi_n must be positive at every sample: "
                          "the rate is unbounded where it is zero")
    return sc


def _legacy_link(p: _Params) -> dict:
    """The gains, noise powers and legacy rate R_l of a coded or mimo file, as
    keyword arguments; read in one fixed order, so the first bad key reported
    is the same for both kinds."""
    a_l = p.value("a_l")
    sigma2_s = p.value("sigma2_s")
    sigma2_nl = p.value("sigma2_nl")
    has_load = "legacy_load" in p._doc
    if has_load == p.has("R_l"):
        raise SchemaError("give exactly one of legacy_load or R_l (R_l in nats)")
    if has_load:
        load = p._number("legacy_load", p.raw("legacy_load"))
        R_l = load * math.log1p(a_l * sigma2_s / sigma2_nl)
    else:
        R_l = p.value("R_l")
    return dict(a_l=a_l, g_l=p.value("g_l"), a_c=p.value("a_c"), g_c=p.value("g_c"),
                sigma2_s=sigma2_s, sigma2_nl=sigma2_nl, sigma2_nc=p.value("sigma2_nc"),
                R_l=R_l)


def _array(raw, name: str) -> np.ndarray:
    """Nested lists whose every entry is a number by the scalar rule."""
    todo = [raw]
    for v in todo:  # a breadth-first walk: the list grows as it is read
        if isinstance(v, list):
            todo.extend(v)
        elif not _is_number(v):
            raise SchemaError(f"{name}: every entry must be a finite number")
    try:
        return np.asarray(raw, dtype=float)
    except ValueError as e:
        raise SchemaError(f"{name}: not a rectangular numeric array ({e})") from e


def _complex_array(raw, name: str, ndim: int) -> np.ndarray:
    """Real nested lists of the expected depth, or one extra trailing level of
    [re, im] pairs for complex entries."""
    arr = _array(raw, name)
    if arr.ndim == ndim:
        return arr.astype(complex)
    if arr.ndim == ndim + 1 and arr.shape[-1] == 2:
        return arr[..., 0] + 1j * arr[..., 1]
    raise SchemaError(
        f"{name}: expected a rank-{ndim} real array or rank-{ndim} array of [re, im] pairs")


def _mimo_channel(p: _Params) -> mimo_mod.MimoChannel:
    H_c = _complex_array(p.raw("H_c"), "H_c", ndim=2)
    h_l = _complex_array(p.raw("h_l"), "h_l", ndim=1)
    h_c = _complex_array(p.raw("h_c"), "h_c", ndim=1)
    return mimo_mod.MimoChannel(H_c=H_c, h_l=h_l, h_c=h_c, **_legacy_link(p))


def _multilegacy_scenario(p: _Params, grid: FrequencyGrid) -> multi_mod.MultiLegacyScenario:
    spec_p = _Params(p.raw("spectrum"), "spectrum")
    kind = spec_p.raw("type")
    if kind == "flat":
        phi_s = flat_spectrum(grid, spec_p.value("sigma2_s"))
    elif kind == "ar1":
        phi_s = ar1_spectrum(grid, spec_p.value("sigma2_s"),
                             spec_p._number("epsilon", spec_p.raw("epsilon")))
    elif kind == "tabulated":
        phi_s = tabulated_spectrum(grid, _array(spec_p.raw("values"), "spectrum.values"))
    else:
        raise SchemaError(f"spectrum.type must be flat, ar1 or tabulated, not {kind!r}")
    spec_p.finish()
    rec_list = p.raw("receivers")
    if not isinstance(rec_list, list) or not rec_list:
        raise SchemaError("receivers must be a non-empty list")
    receivers = []
    for i, rdoc in enumerate(rec_list):
        rp = _Params(rdoc, f"receivers[{i}]")
        receivers.append(multi_mod.LegacyReceiver(
            a=rp.value("a"),
            phi_n=flat_spectrum(grid, rp.value("sigma2_n")),
            D=rp.value("D")))
        rp.finish()
    return multi_mod.MultiLegacyScenario(phi_s=phi_s, receivers=tuple(receivers))


def _rate_factor(log_base: str) -> float:
    return 1.0 if log_base == "e" else 1.0 / math.log(2.0)


def _write(path: str, pieces: Iterable[bytes]):
    """Write pieces to path; a write that fails removes the file it began,
    where path is a plain file: a link, a device or a pipe stays."""
    f = open(path, "wb")
    try:
        with f:
            f.writelines(pieces)
    except BaseException:
        out = Path(path)
        if out.is_file() and not out.is_symlink():
            out.unlink()
        raise


def _write_csv(path: str, header: list[str], rows: list[list[str]]):
    _write(path, ["".join(",".join(r) + "\n" for r in [header, *rows]).encode()])


# The JSON writer writes a document as json.dumps(..., indent=2,
# sort_keys=True) lays it out. One walk, `_skeleton`, checks every number,
# rounds each float to 12 digits and leaves a hole where each 1-D float or int
# array goes; json.dumps lays out the rest before the file opens, and the
# arrays stream into their holes, a _SLICE of entries at a time. A float
# array's run starts within the slice are laid out in one `_float_rows` call,
# and a run of _LONG_RUN entries or more as its text times its length, in
# pieces of at most _SLICE entries. Numpy lays out only repr's positional
# floats, each in _ROW_WORDS uint32 words, and Python formats the rest.
_SLICE = 4096
_LONG_RUN = 64
_ROW_WORDS = 9


def _words(b) -> np.ndarray:
    """A uint8 array (..., 4k) as (..., k) native uint32 words."""
    return np.ascontiguousarray(b, dtype=np.uint8).view(np.uint32)


@functools.cache
def _text_tables() -> dict:
    """The tables of `_float_rows`, built once per process.

    powers[k] is 10**k, exact, for k in [0, 16]. Each 0..9999 maps to its
    four ASCII digits as one word (quads), and with trailing zeros as holes
    (stripped). before[w][a] and after[w][a] mask word w of twelve digits to
    those before and from position a on. head[:, 2k + negative] is the sign
    and, for e = -k < 0, "0." and k - 1 zeros; points are the point with
    digits after it and without.
    """
    quad = np.empty((10, 10, 10, 10, 4), np.uint8)
    digit = np.arange(48, 58, dtype=np.uint8)
    quad[..., 0] = digit[:, None, None, None]
    quad[..., 1] = digit[:, None, None]
    quad[..., 2] = digit[:, None]
    quad[..., 3] = digit
    stripped = quad.copy()
    stripped[..., 0, 3] = 0
    stripped[..., 0, 0, 2] = 0
    stripped[:, 0, 0, 0, 1] = 0
    stripped[0, 0, 0, 0, 0] = 0
    head = np.zeros((5, 2, 8), np.uint8)  # [-e, negative]
    head[:, 1, 0] = ord("-")
    for k in range(1, 5):
        head[k, :, 1:k + 2] = np.frombuffer(b"0.000"[:k + 1], np.uint8)
    j, cut = np.arange(12), np.arange(13)[:, None]
    return {
        "powers": np.array([float(10**k) for k in range(17)]),
        "quads": _words(quad).ravel(),
        "stripped": _words(stripped).ravel(),
        "before": _words((j < cut) * np.uint8(255)).T.copy(),
        "after": _words((j >= cut) * np.uint8(255)).T.copy(),
        "head": _words(head).reshape(-1, 2).T.copy(),
        "points": _words(np.frombuffer(b".\0\0\0.0\0\0", np.uint8)),
    }


def _float_rows(x: np.ndarray, sep: np.ndarray) -> np.ndarray:
    """The words sep, then repr(float(_fmt(v))), for each v of x: one row of
    uint32 words per entry, in which every zero byte is a hole.

    repr writes exponents below 1e-4 and has no place after the point from
    1e11 on; in between it is positional. There the decimal exponent e, from
    floor(log10|v|) moved by one where s = |v| 10**(11 - e) leaves [1e11,
    1e12), lies in [-4, 10], so 10**(11 - e) is exact and s carries one
    rounding, under 2**-14: m = rint(s) is the 12-digit mantissa of %.12g
    wherever s lies more than 1e-3 from a half-integer, and m's digits less
    their trailing zeros are the shortest repr of that rounding. The row
    holds them in fixed words: the head (sign, "0.000"), the digits before
    the point, the point (".0" on integral values) and the digits after it.
    Python formats the rest: zero, |v| outside [1e-4, 1e11), s near a tie,
    and m = 1e12, a rounding up into the next decade. The words are built
    word-major, each as one array over x, and the rows are their transpose.
    """
    t = _text_tables()
    ax = np.abs(x)
    exact = (ax >= 1e-4) & (ax < 1e11)
    ax[~exact] = 1.0
    e = np.floor(np.log10(ax)).astype(np.intp)
    s = ax * t["powers"][11 - e]
    # log10 may round across an integer: one step back into [1e11, 1e12)
    e += s >= 1e12
    e -= s < 1e11
    s = ax * t["powers"][11 - e]
    m = np.rint(s)
    exact &= (m >= 1e11) & (m < 1e12) & (np.abs(s - m) < 0.499)
    m[~exact] = 1e11  # in the tables; Python overwrites these rows
    hi, rest = np.divmod(m.astype(np.int64), 100_000_000)
    mid, lo = np.divmod(rest, 10_000)
    a = np.maximum(e + 1, 0)
    # after the separator: words 0-1 head (which holds the point below 1), 2-4
    # digits before the point, 5 point, 6-8 digits after it
    k = sep.size
    words = np.empty((k + _ROW_WORDS, x.size), np.uint32)
    words[:k] = sep[:, None]
    signed = 2 * np.maximum(-e, 0) + np.signbit(x)
    np.take(t["head"][0], signed, out=words[k], mode="clip")
    np.take(t["head"][1], signed, out=words[k + 1], mode="clip")
    mask = np.empty(x.size, np.uint32)
    # whether a digit after quad w is nonzero: then its zeros are not trailing
    later = ((mid != 0) | (lo != 0), lo != 0, False)
    for w, digits in enumerate((hi, mid, lo)):
        before, after = words[k + 2 + w], words[k + 6 + w]
        np.take(t["quads"], digits, out=before, mode="clip")
        np.take(t["stripped"], digits, out=after, mode="clip")
        np.copyto(after, before, where=later[w])
        before &= np.take(t["before"][w], a, out=mask, mode="clip")
        after &= np.take(t["after"][w], a, out=mask, mode="clip")
    fraction = words[k + 6] | words[k + 7] | words[k + 8]
    words[k + 5] = np.where(e < 0, 0, np.where(fraction != 0, *t["points"]))
    redo = np.flatnonzero(~exact)
    if redo.size:
        texts = b"".join(repr(float(_fmt(v))).encode().ljust(4 * _ROW_WORDS, b"\0")
                         for v in x[redo].tolist())
        words[k:, redo] = _words(np.frombuffer(texts, np.uint8)).reshape(-1, _ROW_WORDS).T
    return words.T


def _unholed(rows: np.ndarray) -> bytes:
    """The text of rows of `_float_rows`: their bytes without the holes."""
    return rows.tobytes().translate(None, b"\0")


def _float_block(values: np.ndarray, pad: bytes) -> Iterator[bytes]:
    """The pieces of json.dumps's layout of repr(float(_fmt(x))) for each x
    of a 1-D array of finite floats.

    Solver output holds long runs of one value: zero stretches off the
    support and in the boundary cells, one water level across a flat
    spectrum. So each run of bit-equal neighbours is formatted once, at its
    first entry, and that text is repeated over the run. Runs are found on
    the bits, not with ==, because 0.0 == -0.0 while their texts differ
    ("0.0" and "-0.0"); bit-equal floats always share a text. Every entry's
    text follows its separator, so the block is "[", the pieces less their
    first comma, and the closing line.
    """
    values = np.asarray(values, dtype=np.float64)
    if not values.size:
        yield b"[]"
        return
    sep = b",\n" + pad + b"  "
    pieces = _run_pieces(values, _words(np.frombuffer(sep.ljust(-(-len(sep) // 4) * 4, b"\0"),
                                                      np.uint8)))
    yield b"[" + next(pieces)[1:]
    yield from pieces
    yield b"\n" + pad + b"]"


def _run_pieces(values: np.ndarray, sep: np.ndarray) -> Iterator[bytes]:
    """The text of each entry of values after the words sep, a _SLICE of
    entries at a time: one `_float_rows` call formats the run starts in the
    slice, and a run that crosses the slice's end is written whole, from its
    start, so a slice that lies within a run writes nothing."""
    n = values.size
    bits = values.view(np.int64)
    # whether each entry starts a run; the place past the end starts one too
    new_run = np.empty(n + 1, dtype=bool)
    new_run[0] = new_run[n] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:n])
    for lo in range(0, n, _SLICE):
        hi = min(lo + _SLICE, n)
        starts = lo + np.flatnonzero(new_run[lo:hi])
        if starts.size:
            # the first run start from hi on ends the slice's last run
            runs = np.diff(starts, append=hi + int(new_run[hi:].argmax()))
            yield from _repeated(_float_rows(values[starts], sep), runs)


def _repeated(rows: np.ndarray, runs: np.ndarray) -> Iterator[bytes]:
    """The text of each row of `_float_rows` repeated runs times: as rows
    repeated before the holes are deleted, or, for a run of _LONG_RUN or more,
    as the text times the run's length, at most _SLICE copies a piece."""
    cut = 0
    for r in [*np.flatnonzero(runs >= _LONG_RUN).tolist(), runs.size]:
        if cut < r:
            stretch = rows[cut:r]
            if runs[cut:r].max() > 1:
                stretch = np.repeat(stretch, runs[cut:r], axis=0)
            yield _unholed(stretch)
        if r < runs.size:
            text = _unholed(rows[r])
            for left in range(int(runs[r]), 0, -_SLICE):
                yield text * min(left, _SLICE)
        cut = r + 1


def _int_block(values: np.ndarray, pad: bytes) -> Iterator[bytes]:
    """The pieces of json.dumps's layout of a 1-D int array at indent pad, a
    _SLICE of entries a piece."""
    if not values.size:
        yield b"[]"
        return
    sep = ",\n" + pad.decode() + "  "
    lead = "[" + sep[1:]
    for lo in range(0, values.size, _SLICE):
        yield (lead + sep.join(map(str, values[lo:lo + _SLICE].tolist()))).encode()
        lead = sep
    yield b"\n" + pad + b"]"


def _skeleton(obj, pad: bytes, arrays: list):
    """obj as json.dumps is to write it at indent pad: dicts in sorted key
    order, each float as float(_fmt(x)), whose repr json writes, and each 1-D
    float or int array as the hole "\0", its pieces appended to arrays. Other
    arrays are written as lists. A NaN or infinite number raises SolverError.
    Every string of a payload is a program constant, so none is a hole."""
    inner = pad + b"  "
    if isinstance(obj, dict):
        return {k: _skeleton(v, inner, arrays) for k, v in sorted(obj.items())}
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.dtype.kind in "fiu":
            if obj.dtype.kind != "f":
                arrays.append(_int_block(obj, pad))
            elif np.isfinite(obj).all():
                arrays.append(_float_block(obj, pad))
            else:
                raise SolverError("the result is not finite")
            return "\0"
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_skeleton(v, inner, arrays) for v in obj]
    if isinstance(obj, float):
        return float(_fmt(_finite(obj)))
    return obj


def _json_pieces(obj) -> Iterable[bytes]:
    """obj as json.dumps(obj, indent=2, sort_keys=True) lays it out, with each
    float written as repr(float(_fmt(x))) and numpy arrays written as lists:
    ASCII bytes in pieces. All but the arrays' text is made here, so a NaN,
    an infinity or a type json cannot write raises before any piece; each
    array piece is made when it is read."""
    arrays = []
    parts = json.dumps(_skeleton(obj, b"", arrays), indent=2).encode().split(b'"\\u0000"')
    return itertools.chain.from_iterable(
        itertools.chain((part,), block) for part, block in zip(parts, arrays + [()]))


def _write_json(path: str, payload: dict):
    _write(path, itertools.chain(_json_pieces(payload), (b"\n",)))


# Each command reads its keys from the scenario file and returns the
# computation: `main` runs it once no key is left over, so a file with an
# unknown key fails before any solve. Rate curves and meshes compute the CSV
# header and rows, `solve` the JSON payload.

def _uncoded_curve(p: _Params, grid_points: int, factor: float):
    db_axis, powers = _power_sweep(p)
    sc = _uncoded_scenario(p, make_grid(grid_points))

    def uncoded_rows():
        shaped = shaping.rate_curve(sc, powers, shaping.CurveMethod.SPECTRUM_SHAPING)
        try:
            it = shaping.rate_curve(sc, powers, shaping.CurveMethod.INTERFERENCE_TEMPERATURE)
            it_rates = [_finite(r) for _, r in it]
        except InfeasibleScenarioError:
            # An infeasible memoryless receiver is marked by NaN in its column.
            it_rates = [math.nan] * len(powers)
        return ["P_db", "rate_it", "rate_shaping"], [
            [_fmt(db), _fmt(r_it * factor), _fmt(_finite(r_sh) * factor)]
            for db, r_it, (_, r_sh) in zip(db_axis, it_rates, shaped)]
    return uncoded_rows


def _coded_curve(p: _Params, grid_points: int, factor: float):
    db_axis, powers = _power_sweep(p)
    sc0 = coded_mod.CodedScenario(**_legacy_link(p), P=1.0)

    def coded_rows():
        rows = []
        for db, pw in zip(db_axis, powers):
            sol = coded_mod.solve_coded(replace(sc0, P=pw))
            rows.append([_fmt(db), _fmt(_finite(sol.rate) * factor), sol.case_tag.value])
        return ["P_db", "rate", "case_tag"], rows
    return coded_rows


def _prelog_mesh(p: _Params, grid_points: int, factor: float):
    """High-power prelog over a (D/sigma2_s, a*sigma2_s/sigma2_n) mesh.

    Prelogs are slope ratios, so the log base does not enter; infeasible
    cells emit prelog 0.
    """
    mesh = _Params(p.raw("mesh"), "mesh")
    d_ratios = mesh.raw("d_ratio")
    snr_dbs = mesh.raw("snr_db")
    mesh.finish()
    for name, axis in (("d_ratio", d_ratios), ("snr_db", snr_dbs)):
        if not isinstance(axis, list) or not axis:
            raise SchemaError(f"mesh.{name} must be a non-empty list")
    d_ratios = [mesh._number("d_ratio", v) for v in d_ratios]
    snr_dbs = [mesh._number("snr_db", v) for v in snr_dbs]
    grid = make_grid(grid_points)
    phi_s = _legacy_spectrum(p, grid)
    sigma2_n = p.value("sigma2_n")
    sigma2_s = mean_power(phi_s)
    if sigma2_s == 0:
        raise SchemaError("prelog-mesh needs a legacy spectrum of positive power: "
                          "the mesh axes are ratios to sigma2_s")
    try:
        gains = [db_to_linear(snr_db) * sigma2_n / sigma2_s for snr_db in snr_dbs]
    except OverflowError as e:
        raise SchemaError("mesh.snr_db is out of range") from e
    # UncodedScenario checks each target at the first gain, and each gain
    phi_n = flat_spectrum(grid, sigma2_n)
    cells = [UncodedScenario(a=gains[0], phi_s=phi_s, phi_n=phi_n, D=d_ratio * sigma2_s, P=1.0)
             for d_ratio in d_ratios]
    per_gain = [replace(cells[0], a=a) for a in gains]
    return lambda: (["d_ratio", "snr_db", "prelog"],
                    _mesh_rows(cells, per_gain, d_ratios, snr_dbs))


def _mesh_rows(cells: list[UncodedScenario], per_gain: list[UncodedScenario],
               d_ratios: list[float], snr_dbs: list[float]) -> list[list[str]]:
    """The mesh's CSV rows: the on-off prelog of the target of each of cells
    at the gain of each of per_gain."""
    columns = shaping._onoff_stops(per_gain, [c.D for c in cells])
    return [[_fmt(d_ratio), _fmt(snr_db), _fmt(stops[i][0])]
            for i, d_ratio in enumerate(d_ratios)
            for snr_db, stops in zip(snr_dbs, columns)]


def _solve_uncoded(p: _Params, grid_points: int, factor: float):
    grid = make_grid(grid_points)
    P = p.value("P")
    sc = _uncoded_scenario(p, grid, P=P)

    def payload() -> dict:
        ws = shaping._Workspace(sc)
        sol = shaping._solve_ws(ws, P)
        if sol.case_tag is shaping.CaseTag.INFEASIBLE:
            raise InfeasibleScenarioError(
                "distortion target below the zero-transmission smoothing floor")
        prelog, gamma, _, _ = shaping._onoff_support_ws(ws, sc.D)
        return {
            "kind": "uncoded",
            "case_tag": sol.case_tag.value,
            "rate": sol.rate * factor,
            "mse": sol.mse,
            "power": sol.power,
            "lambda": sol.lam,
            "mu": sol.mu,
            "prelog": prelog,
            "gamma": gamma,
            "omega": grid.omegas,
            "phi_x": sol.phi_x.values,
        }
    return payload


def _solve_multilegacy(p: _Params, grid_points: int, factor: float):
    grid = make_grid(grid_points)
    sc = _multilegacy_scenario(p, grid)

    def payload() -> dict:
        res = multi_mod.max_prelog_support(sc)
        low_noise = multi_mod.low_noise_support(sc)
        return {
            "kind": "multilegacy",
            "prelog": res.prelog,
            "support_fraction": res.prelog,
            "support": res.support.astype(int),
            "budgets": res.budgets,
            "spent": res.spent,
            "low_noise_support_fraction":
                float(grid.weights[low_noise].sum()) / math.pi,
        }
    return payload


def _solve_coded(p: _Params, grid_points: int, factor: float):
    P = p.value("P")
    sc = coded_mod.CodedScenario(**_legacy_link(p), P=P)

    def payload() -> dict:
        sol = coded_mod.solve_coded(sc)
        return {
            "kind": "coded",
            "case_tag": sol.case_tag.value,
            "w": sol.w,
            "phi0": sol.phi0,
            "rate": sol.rate * factor,
            "prelog": coded_mod.coded_prelog(sc),
            "residuals": dict(sol.residuals),
        }
    return payload


def _solve_mimo(p: _Params, grid_points: int, factor: float):
    P = p.value("P")
    ch = _mimo_channel(p)
    grid = make_grid(grid_points)

    def payload() -> dict:
        sol = mimo_mod.solve_mimo(ch, P, grid=grid)
        return {
            "kind": "mimo",
            "mode": sol.mode.value,
            "w": sol.w,
            "rate": sol.rate * factor,
            "prelog": mimo_mod.mimo_prelog(ch),
            "residuals": dict(sol.residuals),
            "phi0_matrix": [[[float(z.real), float(z.imag)] for z in row]
                            for row in sol.psd.level],
        }
    return payload


# {command: {kind: job}}: which command takes which kind (solve takes every kind)
_JOBS = {"solve": {"uncoded": _solve_uncoded, "multilegacy": _solve_multilegacy,
                   "coded": _solve_coded, "mimo": _solve_mimo},
         "rate-curve": {"uncoded": _uncoded_curve, "coded": _coded_curve},
         "prelog-mesh": {"uncoded": _prelog_mesh}}


# built once per process: parse_args keeps no state between calls
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="specshape",
        description="Cognitive-radio spectrum shaping scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, helptext in (("rate-curve", "rate vs power CSV"),
                           ("prelog-mesh", "prelog mesh CSV"),
                           ("solve", "single solution JSON")):
        sp = sub.add_parser(name, help=helptext)
        sp.add_argument("file", help="scenario JSON file")
        sp.add_argument("-o", "--output", required=True, help="output path")
        sp.add_argument("--grid", type=int, default=4096,
                        help="frequency grid points (default 4096)")
        sp.add_argument("--log-base", choices=("e", "2"), default="e",
                        help="log base for reported rates (default e)")
        sp.add_argument("--quiet", action="store_true", help="suppress progress notes")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.grid > _MAX_GRID_POINTS:
            raise SchemaError(f"--grid must be at most {_MAX_GRID_POINTS}")
        p = _Params(_load_doc(args.file), args.file)
        kind, kinds, jobs = p.raw("kind"), tuple(_JOBS["solve"]), _JOBS[args.command]
        if kind not in kinds:  # a tuple, as `in` on a dict hashes and [] is unhashable
            raise SchemaError(f"unknown kind {kind!r}; expected one of {kinds}")
        if kind not in jobs:
            raise SchemaError(f"{args.command} requires an {' or '.join(jobs)} scenario")
        compute = jobs[kind](p, args.grid, _rate_factor(args.log_base))
        p.finish()
        # the build checked the input: a plain ValueError from here on is the
        # solver's, not the file's
        try:
            result = compute()
        except InfeasibleScenarioError:
            raise
        except ValueError as e:
            raise SolverError(str(e)) from e
        if args.command == "solve":
            result["log_base"] = args.log_base
            _write_json(args.output, result)
            note = f"wrote {args.output}"
        else:
            _write_csv(args.output, *result)
            note = f"wrote {len(result[1])} rows to {args.output}"
    except InfeasibleScenarioError as e:
        print(f"infeasible scenario: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as e:
        print(f"solver failed to converge: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except (SchemaError, OSError, ValueError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    if not args.quiet:
        print(note, file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
