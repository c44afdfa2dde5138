"""Stateful (rule-based) hypothesis machines for the core substrate."""

from collections import Counter

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.core.job import BLACK, Job
from repro.core.ledger import CostLedger
from repro.core.pending import PendingStore
from repro.core.resources import ResourceBank

COLORS = ["red", "green", "blue", "gold"]


class ResourceBankMachine(RuleBasedStateMachine):
    """The bank against its behavioral contract.

    Which surplus copies survive a reconfiguration is deliberately
    unspecified (placement detail); the contract is:

    1. every wanted copy is present afterwards (``after >= want``);
    2. the charge is exactly the number of newly-added copies
       (``|want - before|``) — unchanged copies are free;
    3. anything present beyond ``want`` is a leftover from the previous
       state (``after - want <= before``), i.e. the bank never invents
       colors;
    4. the bank never holds more than ``n`` copies.
    """

    def __init__(self):
        super().__init__()
        self.n = 4
        self.bank = ResourceBank(self.n)
        self.ledger = CostLedger(delta=1)
        self.round = 0

    @rule(desired=st.lists(st.sampled_from(COLORS), min_size=0, max_size=4))
    def reconfigure(self, desired):
        want = Counter(desired)
        before = self.bank.configured_colors()
        charged_before = self.ledger.reconfig_count
        self.bank.reconfigure_to(desired, self.round, self.ledger)
        after = self.bank.configured_colors()
        added = sum((want - before).values())
        assert self.ledger.reconfig_count - charged_before == added
        assert not (want - after), "a wanted copy is missing"
        assert not ((after - want) - before), "the bank invented a color"
        self.round += 1

    @invariant()
    def never_more_than_n(self):
        assert sum(self.bank.configured_colors().values()) <= self.n

    @invariant()
    def assignment_consistent_with_counts(self):
        counted = Counter(
            c for c in self.bank.assignment() if c is not BLACK
        )
        assert counted == self.bank.configured_colors()


class PendingStoreMachine(RuleBasedStateMachine):
    """The pending store against a dict-of-lists model."""

    def __init__(self):
        super().__init__()
        self.store = PendingStore()
        self.model: dict = {color: [] for color in range(3)}
        self.clock = 0

    @rule(color=st.integers(0, 2), bound=st.sampled_from([1, 2, 4]))
    def add(self, color, bound):
        job = Job(color=color, arrival=self.clock, delay_bound=bound)
        self.store.add(job)
        self.model[color].append(job)

    @rule(color=st.integers(0, 2))
    def execute(self, color):
        got = self.store.execute_one(color)
        live = [j for j in self.model[color] if j.deadline > self.clock or True]
        if self.model[color]:
            expected = min(self.model[color], key=Job.sort_key)
            assert got is not None and got.uid == expected.uid
            self.model[color].remove(expected)
        else:
            assert got is None

    @rule()
    def advance_and_drop(self):
        self.clock += 1
        dropped = self.store.drop_expired(self.clock)
        expected = {
            j.uid
            for jobs in self.model.values()
            for j in jobs
            if j.deadline <= self.clock
        }
        assert {j.uid for j in dropped} == expected
        for color in self.model:
            self.model[color] = [
                j for j in self.model[color] if j.deadline > self.clock
            ]

    @invariant()
    def counts_agree(self):
        for color in self.model:
            assert self.store.pending_count(color) == len(self.model[color])

    @invariant()
    def idleness_agrees(self):
        for color in self.model:
            assert self.store.idle(color) == (not self.model[color])


TestResourceBankMachine = ResourceBankMachine.TestCase
TestPendingStoreMachine = PendingStoreMachine.TestCase
