"""Pinned fixed-seed runs of discrete_log, ec_discrete_log and solve_hsp.

EXPECTED was recorded before the three algorithms were routed through one
shared circuit builder and sampler.  A fixed seed must keep giving the same
result, the same sample list and the same log, byte for byte, so any change
to an rng stream or a log field shows up here.

The three ecdlog cases were re-recorded when order finding's sampler went
from an inverse CDF on the grid to rejection sampling: the outcome law is the
same, the rng stream is not, so `order_samples` and the later `pairs` moved.
They moved again, in `order_samples` alone, when order finding stopped
reading the group's order and began to bound it by 2^n from the encoding
length (r_max from |E| to 2^(2 bitlen(p - 1) + 1), so the comb and the
sampled peaks' grid changed); the exponents, orders and pairs stayed.
"""

import json

import numpy as np
import pytest

from normsim.algorithms import HSPInstance, discrete_log, ec_discrete_log, solve_hsp
from normsim.blackbox import EllipticCurveGroup
from normsim.groups import cyclic_group


def _dlog(p, a, b, seed, repetitions=10):
    run = discrete_log(p, a, b, np.random.default_rng(seed), repetitions=repetitions)
    return {"exponent": run.exponent, "samples": run.samples, "log": run.log}


def _ec_dlog(curve, a, b, seed, repetitions=12):
    run = ec_discrete_log(
        EllipticCurveGroup(*curve), a, b, np.random.default_rng(seed), repetitions=repetitions
    )
    return {"exponent": run.exponent, "order": run.order, "log": run.log}


def _hsp(moduli, oracle, seed):
    instance = HSPInstance(group=cyclic_group(*moduli), oracle=oracle)
    run = solve_hsp(instance, np.random.default_rng(seed))
    return {"generators": [str(g) for g in run.generators], "log": run.log}


CASES = {
    "dlog p=7 a=3 b=6 seed=1": lambda: _dlog(7, 3, 6, 1),
    "dlog p=11 a=2 b=9 seed=3": lambda: _dlog(11, 2, 9, 3),
    "dlog p=13 a=2 b=5 seed=4 reps=4": lambda: _dlog(13, 2, 5, 4, repetitions=4),
    "ecdlog p=5 (0,1) -> (4,2) seed=1": lambda: _ec_dlog((5, 1, 1), (0, 1), (4, 2), 1),
    "ecdlog p=7 (2,1) -> (3,6) seed=8": lambda: _ec_dlog(
        (7, 2, 3), (2, 1), (3, 6), 8, repetitions=6
    ),
    "ecdlog p=5 (0,1) -> O seed=2": lambda: _ec_dlog((5, 1, 1), (0, 1), None, 2),
    "hsp Z2xZ2 <(1,1)> seed=1": lambda: _hsp((2, 2), lambda c: (int(c[0]) + int(c[1])) % 2, 1),
    "hsp Z4xZ2 <(2,0)> seed=6": lambda: _hsp((4, 2), lambda c: (int(c[0]) % 2, int(c[1])), 6),
    "hsp Z3xZ3 <(1,2)> seed=9": lambda: _hsp((3, 3), lambda c: (int(c[0]) + int(c[1])) % 3, 9),
}


def record(name):
    """The case's outputs as plain JSON data (tuples become lists)."""
    return json.loads(json.dumps(CASES[name](), default=str))


@pytest.mark.parametrize("name", sorted(CASES))
def test_fixed_seed_outputs_are_pinned(name):
    assert record(name) == EXPECTED[name]


# Recorded with record(name) for every case before the refactor.
EXPECTED = {'dlog p=11 a=2 b=9 seed=3': {'exponent': 6,
                              'log': {'circuit': {'basis': 'Z10^2',
                                                  'gates': ['qft[0, 1]', 'word_exp',
                                                            'qft[0, 1]'],
                                                  'qft_layers': 2},
                                      'pairs': [[0, 0], [2, 2], [8, 8], [5, 0], [0, 0],
                                                [4, 4], [4, 4], [1, 6], [7, 2], [1, 6]],
                                      'repetitions': 10},
                              'samples': [[0, 0], [2, 2], [8, 8], [5, 0], [0, 0], [4, 4],
                                          [4, 4], [1, 6], [7, 2], [1, 6]]},
 'dlog p=13 a=2 b=5 seed=4 reps=4': {'exponent': 9,
                                     'log': {'circuit': {'basis': 'Z12^2',
                                                         'gates': ['qft[0, 1]', 'word_exp',
                                                                   'qft[0, 1]'],
                                                         'qft_layers': 2},
                                             'pairs': [[11, 3], [6, 6], [11, 3], [0, 0]],
                                             'repetitions': 4},
                                     'samples': [[11, 3], [6, 6], [11, 3], [0, 0]]},
 'dlog p=7 a=3 b=6 seed=1': {'exponent': 3,
                             'log': {'circuit': {'basis': 'Z6^2',
                                                 'gates': ['qft[0, 1]', 'word_exp',
                                                           'qft[0, 1]'],
                                                 'qft_layers': 2},
                                     'pairs': [[3, 3], [5, 3], [5, 3], [0, 0], [1, 3],
                                               [2, 0], [4, 0], [2, 0], [3, 3], [0, 0]],
                                     'repetitions': 10},
                             'samples': [[3, 3], [5, 3], [5, 3], [0, 0], [1, 3], [2, 0],
                                         [4, 0], [2, 0], [3, 3], [0, 0]]},
 'ecdlog p=5 (0,1) -> (4,2) seed=1': {'exponent': 2,
                                      'log': {'circuit': {'basis': 'Z9^2',
                                                          'gates': ['qft[0, 1]', 'word_exp',
                                                                    'qft[0, 1]'],
                                                          'qft_layers': 2},
                                              'order_samples': ['145635/262144'],
                                              'pairs': [[2, 4], [2, 4], [4, 8], [8, 7],
                                                        [8, 7], [6, 3], [4, 8], [1, 2],
                                                        [8, 7], [4, 8], [1, 2], [5, 1]]},
                                      'order': 9},
 'ecdlog p=5 (0,1) -> O seed=2': {'exponent': 0,
                                  'log': {'circuit': {'basis': 'Z9^2',
                                                      'gates': ['qft[0, 1]', 'word_exp',
                                                                'qft[0, 1]'],
                                                      'qft_layers': 2},
                                          'order_samples': ['786421/2359296', '349529/786432'],
                                          'pairs': [[7, 0], [7, 0], [4, 0], [6, 0], [6, 0],
                                                    [3, 0], [4, 0], [1, 0], [0, 0], [0, 0],
                                                    [4, 0], [8, 0]]},
                                  'order': 9},
 'ecdlog p=7 (2,1) -> (3,6) seed=8': {'exponent': 2,
                                      'log': {'circuit': {'basis': 'Z6^2',
                                                          'gates': ['qft[0, 1]', 'word_exp',
                                                                    'qft[0, 1]'],
                                                          'qft_layers': 2},
                                              'order_samples': ['1048561/3145728',
                                                                '262135/1572864'],
                                              'pairs': [[5, 4], [0, 0], [2, 4], [3, 0],
                                                        [4, 2], [1, 2]]},
                                      'order': 6},
 'hsp Z2xZ2 <(1,1)> seed=1': {'generators': ['(1, 1)'],
                              'log': {'batches': 2,
                                      'circuit': {'basis': 'Z2^2',
                                                  'gates': ['qft[0, 1]', 'word_exp',
                                                            'qft[0, 1]'],
                                                  'qft_layers': 2},
                                      'circuit_validated': True,
                                      'homomorphism_certified': True,
                                      'oracular_order': 2,
                                      'samples': [[1, 1], [1, 1], [1, 1], [1, 1], [1, 1],
                                                  [1, 1], [1, 1], [1, 1], [0, 0], [0, 0],
                                                  [0, 0], [0, 0], [0, 0], [0, 0], [0, 0],
                                                  [0, 0], [0, 0], [0, 0], [0, 0], [0, 0],
                                                  [0, 0], [0, 0], [0, 0], [0, 0], [0, 0],
                                                  [1, 1], [1, 1], [1, 1], [1, 1], [1, 1],
                                                  [1, 1], [1, 1]]}},
 'hsp Z3xZ3 <(1,2)> seed=9': {'generators': ['(1, 2)'],
                              'log': {'batches': 2,
                                      'circuit': {'basis': 'Z3^2',
                                                  'gates': ['qft[0, 1]', 'word_exp',
                                                            'qft[0, 1]'],
                                                  'qft_layers': 2},
                                      'circuit_validated': True,
                                      'homomorphism_certified': True,
                                      'oracular_order': 3,
                                      'samples': [[2, 2], [2, 2], [2, 2], [2, 2], [0, 0],
                                                  [1, 1], [2, 2], [2, 2], [2, 2], [2, 2],
                                                  [2, 2], [0, 0], [0, 0], [0, 0], [1, 1],
                                                  [1, 1], [0, 0], [0, 0], [0, 0], [2, 2],
                                                  [2, 2], [2, 2], [2, 2], [2, 2], [2, 2],
                                                  [2, 2], [2, 2], [2, 2], [1, 1], [0, 0],
                                                  [1, 1], [1, 1]]}},
 'hsp Z4xZ2 <(2,0)> seed=6': {'generators': ['(2, 0)'],
                              'log': {'batches': 2,
                                      'circuit': {'basis': 'Z4 x Z2',
                                                  'gates': ['qft[0, 1]', 'word_exp',
                                                            'qft[0, 1]'],
                                                  'qft_layers': 2},
                                      'circuit_validated': True,
                                      'homomorphism_certified': True,
                                      'oracular_order': 4,
                                      'samples': [[2, 0], [0, 1], [0, 1], [0, 1], [0, 1],
                                                  [2, 1], [2, 1], [2, 0], [2, 0], [2, 0],
                                                  [0, 0], [0, 0], [0, 0], [2, 1], [2, 1],
                                                  [2, 1], [0, 0], [0, 0], [2, 1], [2, 1],
                                                  [0, 1], [2, 0], [0, 0], [0, 0], [0, 0],
                                                  [0, 0], [0, 1], [0, 1], [2, 1], [2, 0],
                                                  [2, 0], [0, 1]]}}}
