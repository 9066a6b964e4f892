"""Span tracing for the traced benchmark run, installed from outside the
program by patching the `wwl` package in place.

Every wrapped callable gets a record keyed by its defining module and
qualified name (for example `weyl.WeylGroup.ensure_tables`).  A record
counts calls and accumulates three times:

- self time: span time minus the time of wrapped spans nested in it;
- inclusive time: span time of outermost calls only, so recursion is not
  counted twice;
- items: values yielded (generators) or a per-call quantity supplied by a
  hook (monomials in a group-algebra result, cache bytes).

Generators are timed per `next()` call.  While a generator span is active,
recursive calls to the same generator run unwrapped, so a recursive word
enumerator counts each yielded word once.

Hot accessors (table lookups called once per triple or per monomial) stay
unwrapped; their time lands in the calling span.
"""

from __future__ import annotations

import inspect
import os
import time

LAYERS = ("roots", "weyl", "shellability", "groupalg", "coeffs", "hecke",
          "workbench", "cli")

# Private callables that are traced anyway.
PRIVATE_TRACED = {
    "shellability": {"_greedy_chain_idx"},
    "weyl": {"WeylGroup._iter_words_idx", "WeylElement.__mul__"},
    "groupalg": {"GAElement.__add__", "GAElement.__sub__",
                 "GAElement.__neg__", "GAElement.__mul__"},
    "cli": {"_emit"},
}

# Public callables left unwrapped: constant-time lookups and per-monomial
# helpers whose wrapper would cost more than the call.
HOT_UNTRACED = {
    "roots": {"RootSystem"},
    "weyl": {"WeylGroup.order", "WeylGroup.simple_reflection",
             "WeylGroup.idx_of", "WeylGroup.elem_of", "WeylGroup.len_of_idx",
             "WeylGroup.canon_of_idx", "WeylGroup.word_to_idx",
             "WeylGroup.idx_mul", "WeylGroup.rmul_idx", "WeylGroup.lmul_idx",
             "WeylGroup.leq_idx", "WeylGroup.bruhat_mask",
             "WeylElement.apply_weight"},
    "groupalg": {"vp_strip", "vp_add", "vp_neg", "vp_sub", "vp_mul",
                 "vp_eval"},
    "hecke": {"SpectralPoint.z_pow"},
}

# Idempotent table builders: once a call on an instance has returned, later
# calls on it are no-ops that hot accessors make on every lookup, so they
# run untraced.
BUILDERS = {"weyl.WeylGroup.ensure_tables", "weyl.WeylGroup.ensure_bruhat"}

GA_OPS = ("t_op", "mul_one_minus_v_exp", "weyl_act", "demazure", "atom_op")


class Record:
    __slots__ = ("calls", "self_s", "incl_s", "items", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.items = 0
        self.depth = 0


class Tracer:
    """Owns the span stack and the records; `install` patches the package,
    `uninstall` restores every patched attribute."""

    def __init__(self):
        # child-time accumulator of each open span; the bottom entry
        # collects the time of root spans
        self._stack = [0.0]
        self.records: dict[str, Record] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------------

    def _wrap_function(self, fn, rec: Record, hook=None):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            rec.calls += 1
            rec.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec.depth -= 1
                rec.self_s += dt - stack.pop()
                stack[-1] += dt
                if rec.depth == 0:
                    rec.incl_s += dt
            if hook is not None:
                rec.items += hook(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_builder(self, fn, rec: Record):
        traced = self._wrap_function(fn, rec)
        built = set()

        def builder(obj):
            if obj in built:
                return fn(obj)
            result = traced(obj)
            built.add(obj)
            return result

        builder.__wrapped__ = fn
        return builder

    def _wrap_generator(self, fn, rec: Record):
        def traced(*args, **kwargs):
            if rec.depth:
                return fn(*args, **kwargs)
            return self._timed_next(fn(*args, **kwargs), rec)

        traced.__wrapped__ = fn
        return traced

    def _timed_next(self, gen, rec: Record):
        stack = self._stack
        clock = time.perf_counter
        while True:
            rec.calls += 1
            rec.depth += 1
            stack.append(0.0)
            t0 = clock()
            try:
                item = next(gen)
                exhausted = False
            except StopIteration:
                exhausted = True
            finally:
                dt = clock() - t0
                rec.depth -= 1
                rec.self_s += dt - stack.pop()
                stack[-1] += dt
                rec.incl_s += dt
            if exhausted:
                return
            rec.items += 1
            yield item

    # -- installation -----------------------------------------------------------

    def _set(self, owner, name, value):
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def install(self, hooks=None) -> None:
        """Wrap the traced callables of every layer module.  A module-level
        function is patched in its defining module and in every `wwl` module
        that bound it with `from ... import`.  `hooks` maps a record key to
        a function (args, result) -> int added to the record's items."""
        import wwl
        hooks = hooks or {}
        modules = {layer: __import__(f"wwl.{layer}", fromlist=["_"])
                   for layer in LAYERS}
        bound_in = [wwl] + list(modules.values())
        for layer, mod in modules.items():
            private = PRIVATE_TRACED.get(layer, set())
            hot = HOT_UNTRACED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) and name not in hot:
                    self._install_class(layer, obj, private, hot, hooks)
                elif inspect.isfunction(obj) and name not in hot and \
                        (not name.startswith("_") or name in private):
                    key = f"{layer}.{name}"
                    wrapped = self._wrap(obj, key, hooks.get(key))
                    for other in bound_in:
                        if other.__dict__.get(name) is obj:
                            self._set(other, name, wrapped)

    def _install_class(self, layer, cls, private, hot, hooks) -> None:
        for name, attr in list(vars(cls).items()):
            qual = f"{cls.__name__}.{name}"
            if not inspect.isfunction(attr) or qual in hot:
                continue
            if name.startswith("_") and qual not in private:
                continue
            key = f"{layer}.{qual}"
            self._set(cls, name, self._wrap(attr, key, hooks.get(key)))

    def _wrap(self, fn, key, hook):
        rec = self.records.setdefault(key, Record())
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, rec)
        if key in BUILDERS:
            return self._wrap_builder(fn, rec)
        return self._wrap_function(fn, rec, hook)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    # -- results ----------------------------------------------------------------

    def snapshot(self) -> dict:
        return {key: [r.calls, r.self_s, r.incl_s, r.items]
                for key, r in self.records.items()}


def default_hooks() -> dict:
    """Per-call quantities for the per-layer metrics: monomials in every
    group-algebra operator result, and bytes of every cache file written
    or read."""
    def terms(args, result):
        return len(result.terms)

    def written(args, path):
        return os.path.getsize(path)

    def read(args, loaded):
        if not loaded:
            return 0
        from wwl import workbench
        group, cache_dir = args[0], args[1]
        return os.path.getsize(workbench._cache_path(
            cache_dir, group.rs.type_letter, group.rs.rank))

    hooks = {f"groupalg.{name}": terms for name in GA_OPS}
    hooks["workbench.save_group_cache"] = written
    hooks["workbench.load_group_cache"] = read
    return hooks


def layer_metrics(snap: dict, wall_s: float, stdout_bytes: int) -> dict:
    """The per-layer metrics of one traced run, from a `snapshot`."""
    def get(key):
        return snap.get(key, [0, 0.0, 0.0, 0])

    def calls(*keys):
        return sum(get(k)[0] for k in keys)

    def self_of(*keys):
        return sum(get(k)[1] for k in keys)

    def incl(*keys):
        return sum(get(k)[2] for k in keys)

    def items(*keys):
        return sum(get(k)[3] for k in keys)

    layer_self = {layer: sum(v[1] for k, v in snap.items()
                             if k.split(".", 1)[0] == layer)
                  for layer in LAYERS}
    ga_ops = [f"groupalg.{name}" for name in GA_OPS]
    terms = items(*ga_ops)
    words = ("weyl.WeylGroup.iter_reduced_words",
             "weyl.WeylGroup._iter_words_idx")
    reports = [f"workbench.{name}" for name in
               ("verify_conjecture", "stats_sweep", "coeff_report",
                "mtx_report", "cs_report", "good_words_report")]
    m = {
        "roots.build_s": (incl("roots.build_root_system"), "s"),
        "roots.self_s": (layer_self["roots"], "s"),
        "weyl.tables_s": (incl("weyl.WeylGroup.ensure_tables"), "s"),
        "weyl.bruhat_s": (self_of("weyl.WeylGroup.ensure_bruhat"), "s"),
        "weyl.words": (items(*words), "count"),
        "weyl.words_s": (incl(*words), "s"),
        "weyl.elem_muls": (calls("weyl.WeylElement.__mul__"), "count"),
        "weyl.length_calls": (calls("weyl.WeylGroup.length"), "count"),
        "weyl.deletion_calls": (
            calls("weyl.WeylGroup.deleted_word_elements_idx"), "count"),
        "weyl.self_s": (layer_self["weyl"], "s"),
        "shellability.greedy_calls": (
            calls("shellability._greedy_chain_idx"), "count"),
        "shellability.greedy_s": (incl("shellability._greedy_chain_idx"), "s"),
        "shellability.realize_calls": (
            calls("shellability.chain_realizes_idx"), "count"),
        "shellability.realize_s": (
            incl("shellability.chain_realizes_idx"), "s"),
        "shellability.lambda_calls": (
            calls("shellability.lambda_set",
                  "shellability.lambda_positions_idx"), "count"),
        "shellability.sset_calls": (calls("shellability.s_set"), "count"),
        "shellability.sset_s": (incl("shellability.s_set"), "s"),
        "shellability.condition_b_calls": (
            calls("shellability.condition_B"), "count"),
        "shellability.self_s": (layer_self["shellability"], "s"),
        "groupalg.op_calls": (calls(*ga_ops), "count"),
        "groupalg.terms": (terms, "count"),
        "groupalg.ns_per_term": (
            layer_self["groupalg"] * 1e9 / terms if terms else 0.0, "ns"),
        "groupalg.self_s": (layer_self["groupalg"], "s"),
        "coeffs.atom_s": (incl("coeffs.atom_coeffs"), "s"),
        "coeffs.closed_form_calls": (
            calls("coeffs.closed_form_coeff"), "count"),
        "coeffs.closed_form_s": (incl("coeffs.closed_form_coeff"), "s"),
        "coeffs.char_s": (incl("coeffs.char_coeffs"), "s"),
        "coeffs.cs_s": (incl("coeffs.casselman_shalika_check"), "s"),
        "coeffs.self_s": (layer_self["coeffs"], "s"),
        "hecke.gen_muls": (calls("hecke.hecke_left_mul_gen"), "count"),
        "hecke.mu_calls": (calls("hecke.mu"), "count"),
        "hecke.translate_calls": (
            calls("hecke.SpectralPoint.translate"), "count"),
        "hecke.m_matrix_s": (incl("hecke.m_matrix"), "s"),
        "hecke.m_product_s": (incl("hecke.m_product"), "s"),
        "hecke.self_s": (layer_self["hecke"], "s"),
        "workbench.parallel_calls": (
            calls("workbench.parallel_over"), "count"),
        "workbench.cache_write_s": (
            self_of("workbench.save_group_cache"), "s"),
        "workbench.cache_read_s": (
            self_of("workbench.load_group_cache"), "s"),
        "workbench.cache_bytes": (
            items("workbench.save_group_cache",
                  "workbench.load_group_cache"), "bytes"),
        "workbench.report_s": (incl(*reports), "s"),
        "workbench.self_s": (layer_self["workbench"], "s"),
        "cli.emit_s": (incl("cli._emit"), "s"),
        "cli.stdout_bytes": (stdout_bytes, "bytes"),
        "cli.self_s": (layer_self["cli"], "s"),
        "trace.wall_s": (wall_s, "s"),
    }
    return m
