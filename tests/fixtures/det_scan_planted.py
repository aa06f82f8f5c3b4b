"""Planted determinism edge cases for the DET rules.

``tests/unit/test_lint_scan.py`` pins the exact DET findings for
:data:`SOURCE`: hazards at module level and in class bodies, aliased
and ``from`` imports of :mod:`random`, parameters named ``random`` and
``time``, ``hash`` inside a lambda, set and ``os.environ`` iteration in
comprehensions and loops, process-clock reads (DET005 applies only
under an ``observe`` directory) and re-seeding inside trial functions
(DET006 escalates to error once the module passes ``batch=``).

The source is kept in a string so that linting the test tree reports
nothing here; the tests lint it under whichever path they need.  Don't
"fix" it.
"""

SOURCE = '''\
import os
import random
import random as r
import time
from random import choice
from random import seed as reseed

JITTER = r.random()


class Deck:
    top = r.choice([1, 2, 3])
    pick = choice([4, 5])
    order = [card for card in {3, 1, 2}]


def shadowed(random, time):
    random.shuffle([])
    return time.time()


def keyed(items):
    ordered = sorted(items, key=lambda item: hash(item))
    names = {name for name in os.environ}
    return ordered, names, [x for x in frozenset(items)]


def timed(work):
    start = time.perf_counter()
    work()
    return time.perf_counter() - start, time.time()


def reseeding_trial(seed):
    random.seed(seed)
    rng = r.Random(seed * 7)
    reseed(seed)
    return rng.random() + random.Random().random()


def clean_trial(seed):
    return random.Random().random() + seed
'''

#: Appended to :data:`SOURCE`, puts the module on the batched path.
BATCHED_TAIL = "\n\nRUN = dict(trial=reseeding_trial, batch=8)\n"
