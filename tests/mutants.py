"""Mutants that must stay dead.

Each entry breaks the library in one place and names the tests that must
fail on the broken copy.  Run from anywhere:

    python tests/mutants.py

The named tests first run on a clean temporary copy of src/ and tests/,
where they must pass.  Then each entry is applied to its own fresh copy and
every named test must fail there.  The exit code is 1 when an old text does
not occur exactly once, a named test fails on the clean copy or is not
found, or a mutant survives; it is 0 when every mutant is killed.

Pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


FEJER_CELLS = "tests/test_dirichlet.py::test_each_cell_is_kept_with_density_over_envelope[3-64]"
MIXED_INVERSE = "tests/test_circuits.py::test_matrix_rep_inverse_random_mixed_groups"
CURVE_DEBLACKBOX = (
    "tests/test_deblackbox.py::test_sampled_deblackbox_of_a_curve_dlog_circuit_walks_the_group_once"
)
DENSE_KERNEL = "tests/test_algorithms.py::test_dense_kernel_equals_the_word_table_route"
NON_CYCLIC_DLOG = "tests/test_algorithms.py::test_black_box_dlog_on_non_cyclic_units"
FOURIER_OPENING = "tests/test_dense.py::test_fourier_opening_matches_the_gatewise_run"
PER_AXIS_QFT = "tests/test_dense.py::test_the_per_axis_qft_is_ifftn_byte_for_byte"
EVERY_PRODUCT = "tests/test_dense.py::test_every_product_of_the_walk_is_counted"
BLOCK_DECISIONS = (
    "tests/test_circuits.py::test_validation_agrees_with_determinants_and_brute_force_bijectivity"
)
ROUND_TRIPS = "tests/test_deblackbox.py::test_random_round_trips_finite"
WORD_ENUMERATION = "tests/test_deblackbox.py::test_decode_map_equals_the_word_enumeration"
GOLDEN = "tests/test_golden.py::test_every_golden_family_matches_the_record"
GOLDEN_DENSE = (
    "tests/test_golden.py::test_the_first_dense_cases_match_the_record_and_see_one_flipped_bit"
)
PADDED = "tests/test_deblackbox.py::test_normal_form_gates_are_padded_by_the_identity"
SAMPLED_SPOT_CHECKS = (
    "tests/test_deblackbox.py::"
    "test_sampled_spot_checks_reject_an_oracle_that_is_not_the_promised_gate"
)
MIXED_DENSE = "tests/test_deblackbox.py::test_dense_distribution_of_a_mixed_circuit_maps_back"
FOLD = "tests/test_blackbox.py::test_cayley_fold_matches_the_breadth_first_walk"
KEPT_WALK = "tests/test_blackbox.py::test_cayley_walk_is_kept_for_the_same_generators"
CAP_BOUNDARY = "tests/test_blackbox.py::test_cayley_walk_refuses_past_the_cap_at_the_boundary"
SIMULATOR_ORDER = "tests/test_blackbox.py::test_simulator_order_equals_bb_order_at_no_oracle_call"
ORDER_CERTIFICATE = (
    "tests/test_blackbox.py::"
    "test_verify_order_certificate_agrees_with_the_walk_on_small_unit_groups"
)
WALK_INDEX = "tests/test_blackbox.py::test_walk_index_inverts_word_and_reduces_any_exponents"
WRONG_ORDER_CLAIMS = "tests/test_blackbox.py::test_verify_rejects_each_wrong_order_claim"

MUTANTS = [
    Mutant(
        name="coset points always in int64",
        path="src/normsim/coset.py",
        old="dtype = np.int64 if bound < 1 << 63 else object",
        new="dtype = np.int64",
        tests=(
            "tests/test_cli.py::test_run_coset_engine_past_int64",
            "tests/test_coset.py::test_draws_are_exact_past_int64",
        ),
    ),
    Mutant(
        name="group system width taken from the first row",
        path="src/normsim/linalg.py",
        old="    cols = system.width\n",
        new="    cols = len(system.a[0]) if system.a else 0\n",
        tests=(
            "tests/test_linalg.py::test_system_with_no_rows_keeps_its_width",
            "tests/test_algorithms.py::test_linear_system_over_a_trivial_group",
        ),
    ),
    Mutant(
        name="curve square roots in decreasing y",
        path="src/normsim/blackbox.py",
        old="        for y in range(self.p):\n            roots.setdefault",
        new="        for y in reversed(range(self.p)):\n            roots.setdefault",
        tests=("tests/test_blackbox.py::test_ec_elements_in_the_order_of_the_pair_enumeration",),
    ),
    Mutant(
        name="collision kernel always generated by its first generator",
        path="src/normsim/coset.py",
        old="        if math.gcd(value, n) == math.gcd(n, *values):\n            return w",
        new="        if True:\n            return w",
        tests=("tests/test_coset.py::test_collision_kernel_needs_a_combined_generator",),
    ),
    Mutant(
        name="group system kernel without its Hermite pass",
        path="src/normsim/linalg.py",
        old="    kernel = hermite_reduce(basis)",
        new="    kernel = [vector for vector in basis if any(vector)]",
        tests=("tests/test_linalg.py::test_solve_group_system_equals_the_double_hermite_path",),
    ),
    Mutant(
        name="group system sweep without the final reduction of x0",
        path="src/normsim/linalg.py",
        old="        q = x0[pivot] // gen[pivot]\n",
        new="        q = 0\n",
        tests=("tests/test_linalg.py::test_solve_group_system_equals_the_double_hermite_path",),
    ),
    Mutant(
        name="group system without its h | r infeasibility check",
        path="src/normsim/linalg.py",
        old="        if r % h:\n            return None\n",
        new="",
        tests=("tests/test_linalg.py::test_solve_infeasible",),
    ),
    Mutant(
        name="peak mass series without its (1 - k/L) weight",
        path="src/normsim/dirichlet.py",
        old="series = 2 * (1 - k / self.l) * np.sin",
        new="series = 2 * np.sin",
        tests=("tests/test_dirichlet.py::test_peak_mass_agrees_with_direct_quadrature",),
    ),
    Mutant(
        name="Fejer sampler without halving at the one-sign cells",
        path="src/normsim/dirichlet.py",
        old="            if j == 0 or 2 * j == grid_size:\n                accept /= 2\n",
        new="",
        tests=(FEJER_CELLS,),
    ),
    Mutant(
        name="Fejer sampler cells without their sign",
        path="src/normsim/dirichlet.py",
        old="cells.append(-j % grid_size if w < accept / 2 else j)",
        new="cells.append(j)",
        tests=(FEJER_CELLS,),
    ),
    Mutant(
        name="Fejer tail envelope 1/j^2 instead of 1/(j (j - 1))",
        path="src/normsim/dirichlet.py",
        old="envelope = grid_size**2 / (4 * l * j * (j - 1))",
        new="envelope = grid_size**2 / (4 * l * j * j)",
        tests=(FEJER_CELLS,),
    ),
    Mutant(
        name="bridge coordinates from A instead of B",
        path="src/normsim/deblackbox.py",
        old="for row, c in zip(self.table.b, self.table.c)",
        new="for row, c in zip(self.table.a, self.table.c)",
        tests=(f"{WORD_ENUMERATION}[Z15*]", CURVE_DEBLACKBOX),
    ),
    Mutant(
        name="bridge coordinates from B transposed",
        path="src/normsim/deblackbox.py",
        old="for row, c in zip(self.table.b, self.table.c)",
        new="for row, c in zip(zip(*self.table.b), self.table.c)",
        tests=(
            f"{WORD_ENUMERATION}[E(17, 2, 4)]",
            "tests/test_deblackbox.py::test_encode_equals_the_beta_word[Z15*]",
        ),
    ),
    Mutant(
        name="bridge encode reads the walk at B g instead of A g",
        path="src/normsim/deblackbox.py",
        old="for row in self.table.a]",
        new="for row in self.table.b]",
        tests=(f"{WORD_ENUMERATION}[E(11, 1, 1)]",),
    ),
    Mutant(
        name="kept Cayley walk resumed for any generator list as long",
        path="src/normsim/blackbox.py",
        old="if key[:len(kept)] != kept:",
        new="if len(key[:len(kept)]) != len(kept):",
        tests=(KEPT_WALK,),
    ),
    Mutant(
        name="a Cayley walk refused half-extended stays kept",
        path="src/normsim/blackbox.py",
        old="    group._walk = None  # a walk that raises half-extended is not kept\n",
        new="",
        tests=(CAP_BOUNDARY,),
    ),
    Mutant(
        name="resumed Cayley walk folds the kept generators again",
        path="src/normsim/blackbox.py",
        old="generators[len(kept):], walk,",
        new="generators, walk,",
        tests=(
            "tests/test_blackbox.py::test_a_resumed_walk_equals_a_fresh_walk[zn_star]",
            "tests/test_blackbox.py::test_sample_generators_generate",
        ),
    ),
    Mutant(
        name="coset walk closes each generator's relation at m - 1",
        path="src/normsim/blackbox.py",
        old="walk.moduli.append(n // size)",
        new="walk.moduli.append(n // size - 1)",
        tests=(f"{FOLD}[zn_star]", FOURIER_OPENING),
    ),
    Mutant(
        name="walk relations drop the carry word",
        path="src/normsim/blackbox.py",
        old="[-w for w in carry]",
        new="[0 for w in carry]",
        tests=(f"{FOLD}[zn_star]", f"{FOLD}[shor curves]"),
    ),
    Mutant(
        name="coset walk words never carry into the next digit",
        path="src/normsim/blackbox.py",
        old="            p, d = divmod(p, m)\n",
        new="            d = p % m\n",
        tests=(f"{FOLD}[zn_star]", FOURIER_OPENING),
    ),
    Mutant(
        name="coset walk closes with an empty carry word",
        path="src/normsim/blackbox.py",
        old="walk.carries.append(walk.word(position[k]))",
        new="walk.carries.append(walk.word(0))",
        tests=(f"{FOLD}[zn_star]", FOURIER_OPENING),
    ),
    Mutant(
        name="coset walk multiplies the element before, not the last coset",
        path="src/normsim/blackbox.py",
        old="value = product(elements[n - size], g)",
        new="value = product(elements[n - 1], g)",
        tests=(f"{FOLD}[zn_star]", FOURIER_OPENING),
    ),
    Mutant(
        name="coset walk refuses a group of exactly the cap",
        path="src/normsim/blackbox.py",
        old="if n + size > cap:",
        new="if n + size >= cap:",
        tests=(CAP_BOUNDARY, FOURIER_OPENING),
    ),
    Mutant(
        name="sample_generators keeps a candidate already in the walk",
        path="src/normsim/blackbox.py",
        old="            if self.encode(candidate) not in walk.position:\n",
        new="            if True:\n",
        tests=(
            "tests/test_blackbox.py::test_sample_generators_pinned[zn_star 63-4]",
            "tests/test_cli_pinned.py::test_cli_bytes_are_pinned[deblackbox-json]",
        ),
    ),
    Mutant(
        name="inverse without its torus-from-Z-and-finite block",
        path="src/normsim/circuits.py",
        old="            x[i][j] = -sum(value * x[k][j] for value, k in zip(row, zf))",
        new="            x[i][j] = 0",
        tests=(MIXED_INVERSE, "tests/test_circuits.py::test_matrix_rep_mixed_blocks"),
    ),
    Mutant(
        name="inverse solving the finite rows over Z",
        path="src/normsim/circuits.py",
        old="        moduli = [factors[i].modulus for i in idx]  # 0 on Z and T",
        new="        moduli = [0 for i in idx]",
        tests=(MIXED_INVERSE, "tests/test_circuits.py::test_inverse_of_the_inverse_is_the_rep"),
    ),
    Mutant(
        name="continued fraction tolerance strict",
        path="src/normsim/linalg.py",
        old="scale * err <= den * k",
        new="scale * err < den * k",
        tests=(
            "tests/test_linalg.py::test_cf_integer_euclid_equals_the_fraction_reference",
            "tests/test_linalg.py::test_cf_equals_the_fraction_reference_on_every_small_sample",
        ),
    ),
    Mutant(
        name="dense sample cumulative sums not rescaled to end at 1",
        path="src/normsim/dense.py",
        old="    cdf /= cdf[-1]\n",
        new="",
        tests=("tests/test_dense.py::test_the_largest_uniform_draw_lands_on_the_last_outcome",),
    ),
    Mutant(
        name="bb_order exhaustion without its final mul count",
        path="src/normsim/blackbox.py",
        old="    group.counter.mul += cap - 1\n",
        new="",
        tests=(
            "tests/test_blackbox.py::test_bb_order_equals_the_checked_mul_loop",
            "tests/test_blackbox.py::test_bb_order_counts_cap_calls_when_the_order_exceeds_it",
        ),
    ),
    Mutant(
        name="kernel sampler stops after its first batch",
        path="src/normsim/algorithms.py",
        old="        if rows == previous:\n            break\n",
        new="        break\n",
        tests=(
            "tests/test_algorithms.py::test_solve_hsp_matches_the_closure_batch_loop",
            "tests/test_cli_pinned.py::test_cli_bytes_are_pinned[hsp-json]",
        ),
    ),
    Mutant(
        name="dense kernel circuit on the generators in reverse",
        path="src/normsim/algorithms.py",
        old="fourier_circuit(cyclic_group(*([d] * len(generators))), group, generators)",
        new="fourier_circuit(cyclic_group(*([d] * len(generators))), group, generators[::-1])",
        tests=(
            f"{DENSE_KERNEL}[zn_star 21]",
            f"{DENSE_KERNEL}[ec 11 1 1]",
            "tests/test_algorithms.py::test_decompose_round_trip_words",
        ),
    ),
    Mutant(
        name="exhaustive verify compares the walk with the number of beta",
        path="src/normsim/blackbox.py",
        old="if reached != self.order():",
        new="if reached != len(self.c):",
        tests=(
            "tests/test_blackbox.py::test_decompose_z15",
            "tests/test_blackbox.py::test_exhaustive_verify_accepts_a_curve_table_on_a_fresh_group",
        ),
    ),
    Mutant(
        name="finite block checked without its N_i e_i columns",
        path="src/normsim/circuits.py",
        old=(
            '        if kind == "cyclic":\n'
            "            columns += [[group.factors[i].modulus * (i == j) for i in idx] for j in idx]\n"
        ),
        new="",
        tests=(
            BLOCK_DECISIONS,
            "tests/test_circuits.py::test_matrix_rep_accepts_exactly_the_automorphisms",
        ),
    ),
    Mutant(
        name="T block not checked",
        path="src/normsim/circuits.py",
        old='        ("T", "T block is not unimodular"),\n',
        new="",
        tests=(BLOCK_DECISIONS, "tests/test_circuits.py::test_matrix_rep_rejects_bad_blocks"),
    ),
    Mutant(
        name="discrete log solved from its first sample only",
        path="src/normsim/algorithms.py",
        old="    return _solve_pooled_pairs(pairs, n), pairs, circuit\n",
        new="    return _solve_pooled_pairs(pairs[:1], n), pairs, circuit\n",
        tests=(
            "tests/test_algorithms.py::test_dlog_p7_examples",
            "tests/test_algorithms.py::test_ec_dlog_all_multiples_f5",
            f"{NON_CYCLIC_DLOG}[35]",
        ),
    ),
    Mutant(
        name="black-box discrete log without its a^s = b check",
        path="src/normsim/algorithms.py",
        old="    if s is None or group.power(a, s) != b:\n",
        new="    if s is None:\n",
        tests=(f"{NON_CYCLIC_DLOG}[21]", f"{NON_CYCLIC_DLOG}[35]"),
    ),
    Mutant(
        name="order finding bounds the order by the group's own order",
        path="src/normsim/algorithms.py",
        old="    r_max = 1 << group.encoding_length\n",
        new="    r_max = group.order()\n",
        tests=(
            "tests/test_algorithms.py::test_black_box_algorithms_do_not_ask_for_the_group_order",
        ),
    ),
    Mutant(
        name="factor without its prime-power branch",
        path="src/normsim/algorithms.py",
        old="    if len(primes) == 1:\n",
        new="    if False:\n",
        tests=(
            "tests/test_algorithms.py::test_factor_refuses_only_prime_powers",
            "tests/test_cli.py::test_factor_perfect_power_that_is_not_a_prime_power",
        ),
    ),
    Mutant(
        name="Fourier opening scaled first register first",
        path="src/normsim/dense.py",
        old="    for r in reversed(qft.registers):",
        new="    for r in qft.registers:",
        tests=(FOURIER_OPENING,),
    ),
    Mutant(
        name="Fourier opening taken at a nonzero elementary start",
        path="src/normsim/dense.py",
        old="    return start if start < len(state.bb_labels) else None\n",
        new="    return start % len(state.bb_labels)\n",
        tests=(
            FOURIER_OPENING,
            "tests/test_dense.py::test_a_fourier_opening_from_zero_costs_one_transform",
        ),
    ),
    Mutant(
        name="Fourier opening walked from label index 0, not the start label",
        path="src/normsim/dense.py",
        old="    labels, walk = _coset_walk(state, func, label)\n",
        new="    labels, walk = _coset_walk(state, func, 0)\n",
        tests=(
            FOURIER_OPENING,
            "tests/test_dense.py::test_batched_black_box_gates_match_the_per_label_loops",
        ),
    ),
    Mutant(
        name="per-axis QFT taken first register first",
        path="src/normsim/dense.py",
        old="    for r in reversed(registers):\n",
        new="    for r in registers:\n",
        tests=(PER_AXIS_QFT, FOURIER_OPENING),
    ),
    Mutant(
        name="coset walk reduction drops the carry word",
        path="src/normsim/blackbox.py",
        old="                if w:\n",
        new="                if False:\n",
        tests=(
            WALK_INDEX,
            FOURIER_OPENING,
            "tests/test_dense.py::test_batched_black_box_gates_match_the_per_label_loops",
            GOLDEN,
        ),
    ),
    Mutant(
        name="walk index combines the digits first generator slowest",
        path="src/normsim/blackbox.py",
        old="            p = p * self.moduli[r] + d\n",
        new="            p = p + d * math.prod(self.moduli[r + 1:])\n",
        tests=(WALK_INDEX, FOURIER_OPENING),
    ),
    Mutant(
        name="coset walk leaves the closing product uncounted",
        path="src/normsim/blackbox.py",
        old="group.counter.mul += n - size + 1",
        new="group.counter.mul += n - size",
        tests=(
            KEPT_WALK,
            f"{EVERY_PRODUCT}[curve]",
            "tests/test_dense.py::test_word_exp_gates_cost_one_coset_walk",
            "tests/test_algorithms.py::test_dlog_queries_fall_on_one_counter",
        ),
    ),
    Mutant(
        name="coset walk builds each coset from the first coset, not the last",
        path="src/normsim/blackbox.py",
        old="value = product(elements[n - size], g)",
        new="value = product(elements[n % size], g)",
        tests=(
            f"{FOLD}[zn_star]",
            FOURIER_OPENING,
            "tests/test_dense.py::test_batched_black_box_gates_match_the_per_label_loops",
            f"{EVERY_PRODUCT}[oracle k=3]",
        ),
    ),
    Mutant(
        name="Fourier opening gathers along the previous base's register",
        path="src/normsim/dense.py",
        old="reshape((-1,) + (1,) * (k - 1 - r))",
        new="reshape((-1,) + (1,) * (k - r))",
        tests=(
            FOURIER_OPENING,
            GOLDEN,
            GOLDEN_DENSE,
        ),
    ),
    Mutant(
        name="reduce fast path without its % n",
        path="src/normsim/groups.py",
        old="return GroupElement(self, tuple(map(operator.mod, coords, moduli)))",
        new="return GroupElement(self, tuple(coords))",
        tests=(
            "tests/test_coordinate_types.py::test_reduce_of_plain_ints_on_cyclic_factors",
            "tests/test_coordinate_types.py::test_reduce_equals_the_per_factor_reference",
        ),
    ),
    Mutant(
        name="exhaustive matrix check compares the oracle's raw output",
        path="src/normsim/deblackbox.py",
        old="        if group.reduce(tuple(f(coords))).coords != expected:\n",
        new="        if tuple(f(coords)) != expected:\n",
        tests=(
            "tests/test_deblackbox.py::test_extraction_takes_unreduced_coordinates",
            "tests/test_deblackbox.py::"
            "test_exhaustive_matrix_check_takes_any_iterable_in_any_representative[unreduced list]",
        ),
    ),
    Mutant(
        name="phase residual without its s C_i term",
        path="src/normsim/deblackbox.py",
        old="        quadratic = s * s * m_ii + s * (m_ii * chars[i])\n",
        new="        quadratic = s * s * m_ii\n",
        tests=(ROUND_TRIPS, GOLDEN),
    ),
    Mutant(
        name="extracted matrix transposed",
        path="src/normsim/deblackbox.py",
        old="    return [[columns[j][i] for j in range(m)] for i in range(m)]\n",
        new="    return [[columns[i][j] for j in range(m)] for i in range(m)]\n",
        tests=(ROUND_TRIPS, GOLDEN),
    ),
    Mutant(
        name="extracted phase without its cross terms",
        path="src/normsim/deblackbox.py",
        old="            entries[i][j] = entries[j][i] = value\n",
        new="            entries[i][j] = entries[j][i] = value if i == j else Fraction(0)\n",
        tests=(ROUND_TRIPS, "tests/test_deblackbox.py::test_extract_quadratic_mixed_group"),
    ),
    Mutant(
        name="bridge point map splits one coordinate early",
        path="src/normsim/deblackbox.py",
        old="        split = len(point) - len(self.table.c)\n",
        new="        split = len(point) - len(self.table.c) - 1\n",
        tests=(
            "tests/test_deblackbox.py::test_point_conversion_round_trip",
            f"{MIXED_DENSE}[start1]",
        ),
    ),
    Mutant(
        name="bridge point map decodes the first coordinate",
        path="src/normsim/deblackbox.py",
        old="        return point[:-1] + self.decode(point[-1]).coords\n",
        new="        return point[:-1] + self.decode(point[0]).coords\n",
        tests=(
            "tests/test_deblackbox.py::test_deblackbox_takes_any_iterable_image[list]",
            f"{MIXED_DENSE}[start2]",
        ),
    ),
    Mutant(
        name="padded automorphism with 0 on the new diagonal",
        path="src/normsim/deblackbox.py",
        old="_padded(gate.rep.matrix, size, 1)",
        new="_padded(gate.rep.matrix, size, 0)",
        tests=(f"{PADDED}[Z4]", f"{PADDED}[Z x Z4]"),
    ),
    Mutant(
        name="padded phase with 1/2 in the new entries of v",
        path="src/normsim/deblackbox.py",
        old="[0] * (size - len(gate.form.v))",
        new="[Fraction(1, 2)] * (size - len(gate.form.v))",
        tests=(f"{PADDED}[Z4]", f"{PADDED}[Z x Z4]"),
    ),
    Mutant(
        name="sampled matrix spot checks skipped",
        path="src/normsim/deblackbox.py",
        old="        for coords in [_sample_coords(group, rng)"
        " for _ in range(MATRIX_SPOT_CHECKS)]:\n",
        new="        for coords in []:\n",
        tests=(
            f"{SAMPLED_SPOT_CHECKS}[matrix on Z17 x Z17]",
            f"{SAMPLED_SPOT_CHECKS}[matrix on Z x Z4]",
        ),
    ),
    Mutant(
        name="sampled phase spot checks skipped",
        path="src/normsim/deblackbox.py",
        old="        for coords in [_sample_coords(group, rng)"
        " for _ in range(QUADRATIC_SPOT_CHECKS)]:\n",
        new="        for coords in []:\n",
        tests=(f"{SAMPLED_SPOT_CHECKS}[phase on Z17 x Z17]",),
    ),
    Mutant(
        name="global-phase comparison without its |ratio| = 1 test",
        path="src/normsim/coset.py",
        old="    if abs(abs(ratio) - 1.0) > tol:\n        return False\n",
        new="",
        tests=("tests/test_coset.py::test_global_phase_comparison_says_no_to_any_other_ray",),
    ),
    Mutant(
        name="dense cap check reads the exact order",
        path="src/normsim/dense.py",
        old="blackbox.order_within(cap // math.prod(dims))",
        new="(blackbox.order(), True)",
        tests=(
            "tests/test_algorithms.py::"
            "test_decompose_a_huge_semiprime_takes_the_classical_route_without_its_order",
            "tests/test_algorithms.py::test_black_box_algorithms_do_not_ask_for_the_group_order",
        ),
    ),
    Mutant(
        name="sample_generators reads the exact order",
        path="src/normsim/blackbox.py",
        old="        target, _ = self.order_within(DEFAULT_ORDER_CAP)\n",
        new="        target = self.order()\n",
        tests=(
            "tests/test_algorithms.py::test_sample_generators_refuses_a_huge_group_before_drawing",
        ),
    ),
    Mutant(
        name="brute-force decomposition reads the exact order",
        path="src/normsim/blackbox.py",
        old="group.order_within(len(walk))[0]",
        new="group.order()",
        tests=(
            "tests/test_algorithms.py::"
            "test_bruteforce_decomposition_of_a_huge_group_ends_after_its_walk",
        ),
    ),
    Mutant(
        name="minimal order strips each prime once",
        path="src/normsim/blackbox.py",
        old="        while r % q == 0 and power(a, r // q) == identity:\n",
        new="        if r % q == 0 and power(a, r // q) == identity:\n",
        tests=(f"{SIMULATOR_ORDER}[zn_star]", f"{SIMULATOR_ORDER}[shor curves]"),
    ),
    Mutant(
        name="simulator order is the group order unstripped",
        path="src/normsim/blackbox.py",
        old="    return minimal_order(group, group._check(a), n, group._power)\n",
        new="    return n\n",
        tests=(f"{SIMULATOR_ORDER}[zn_star]", f"{SIMULATOR_ORDER}[criterion 10]"),
    ),
    Mutant(
        name="simulator order strips on the counted oracle",
        path="src/normsim/blackbox.py",
        old="n, group._power)",
        new="n, group.power)",
        tests=(
            f"{SIMULATOR_ORDER}[zn_star]",
            "tests/test_algorithms.py::test_find_order_on_a_large_semiprime_within_a_second",
        ),
    ),
    Mutant(
        name="resumed walk drops the kept relations",
        path="src/normsim/blackbox.py",
        old="    kept, walk = group._walk or ((), None)\n",
        new="    kept, walk = group._walk or ((), None)\n"
        "    if walk:\n        walk.moduli, walk.carries = [], []\n",
        tests=(
            "tests/test_blackbox.py::test_a_resumed_walk_equals_a_fresh_walk[zn_star]",
            "tests/test_blackbox.py::test_sample_generators_generate",
        ),
    ),
    Mutant(
        name="independent generators beta in reverse order",
        path="src/normsim/blackbox.py",
        old="    for j in keep:\n",
        new="    for j in keep[::-1]:\n",
        tests=(
            "tests/test_blackbox.py::test_decompose_z15",
            "tests/test_deblackbox.py::test_bridge_encode_decode_z15",
        ),
    ),
    Mutant(
        name="order certificate skips the first prime of c",
        path="src/normsim/blackbox.py",
        old="    for q in prime_factors(multiple):\n",
        new="    for q in prime_factors(multiple)[1:]:\n",
        tests=(ORDER_CERTIFICATE, f"{WRONG_ORDER_CLAIMS}[zn_star]"),
    ),
    Mutant(
        name="order certificate without beta^c = 1",
        path="src/normsim/blackbox.py",
        old="                or group.power(b_i, c_i) != identity\n",
        new="",
        tests=(ORDER_CERTIFICATE, f"{WRONG_ORDER_CLAIMS}[curve]"),
    ),
    Mutant(
        name="multivariate discrete log reads the walk position before b's",
        path="src/normsim/algorithms.py",
        old="    return list(walk.word(p))\n",
        new="    return list(walk.word(p - 1))\n",
        tests=(
            "tests/test_algorithms.py::"
            "test_multivariate_dlog_equals_the_bridge_decode_at_the_cost_of_the_walk",
            "tests/test_algorithms.py::test_multivariate_dlog_examples",
        ),
    ),
    Mutant(
        name="modexp check decides ord(a) | 2M",
        path="src/normsim/circuits.py",
        old="    if group.power(a, m) != group.identity():\n",
        new="    if group.power(a, 2 * m) != group.identity():\n",
        tests=(
            "tests/test_circuits.py::test_modexp_check_matches_divisibility",
            "tests/test_circuits.py::"
            "test_modexp_check_decides_the_order_by_one_power_then_decomposes_once[15]",
        ),
    ),
    Mutant(
        name="discrete log without its generator test",
        path="src/normsim/algorithms.py",
        old="    if minimal_order(group, a, p - 1, group.power) != p - 1:\n"
        "        raise DiscreteLogError(f\"{a} does not generate the units mod {p}\")\n",
        new="",
        tests=(
            "tests/test_algorithms.py::test_dlog_generator_check_matches_the_order",
            "tests/test_algorithms.py::test_dlog_queries_fall_on_one_counter",
        ),
    ),
    Mutant(
        name="square-and-multiply drops the multiply on a set bit",
        path="src/normsim/blackbox.py",
        old="            if bit == \"1\":\n                result = self._product(result, base)\n",
        new="",
        tests=(
            "tests/test_blackbox.py::test_power_matches_repeated_multiplication",
            "tests/test_blackbox.py::"
            "test_word_is_the_naive_product_at_its_powers_plus_one_mul_per_join",
        ),
    ),
    Mutant(
        name="power counts one squaring too many",
        path="src/normsim/blackbox.py",
        old="k.bit_length() + k.bit_count() - 2",
        new="k.bit_length() + k.bit_count() - 1",
        tests=(
            "tests/test_blackbox.py::test_power_counts_two_less_than_bit_length_plus_popcount",
            "tests/test_algorithms.py::test_dlog_queries_fall_on_one_counter",
        ),
    ),
]


def _copy_tree(scratch: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, scratch / part, ignore=ignore)


def _run(scratch: Path, test: str) -> int:
    """Pytest's exit code for one node id on the copy: 0 passed, 1 failed."""
    env = dict(os.environ, PYTHONPATH=str(scratch / "src"))
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(
        command, cwd=scratch, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    ).returncode


def main() -> int:
    problems = []
    for mutant in MUTANTS:
        count = (ROOT / mutant.path).read_text().count(mutant.old)
        if count != 1:
            problems.append(f"{mutant.name}: old text occurs {count} times in {mutant.path}")
    if problems:
        print("\n".join(problems))
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        for test in sorted({t for mutant in MUTANTS for t in mutant.tests}):
            code = _run(clean, test)
            if code != 0:
                problems.append(f"clean copy: {test} exits {code}, not 0")
        for index, mutant in enumerate(MUTANTS):
            scratch = Path(tmp) / f"mutant{index}"
            _copy_tree(scratch)
            target = scratch / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            codes = {test: _run(scratch, test) for test in mutant.tests}
            survivors = [test for test, code in codes.items() if code != 1]
            verdict = "killed" if not survivors else "SURVIVED"
            print(f"{verdict}: {mutant.name}")
            for test in survivors:
                problems.append(f"{mutant.name}: {test} exits {codes[test]}, not 1 (failed)")
    print("\n".join(problems) if problems else f"all {len(MUTANTS)} mutants killed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
