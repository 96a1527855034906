"""Deadlines and retry budgets: the invocation-scoped overload contract.

One :class:`InvocationContext` is minted per invocation at the load
balancer and rides with the work: the admission queue sheds requests
whose deadline already passed, the pager clamps its fallback-RPC
deadline to the remaining budget, and every retry anywhere below —
LB re-dispatch, RPC resend, fetch fallback — must be paid for from the
same :class:`RetryBudget`.  The budget keeps an append-only ledger so
the resilience sanitizer can verify conservation (spent == sum of
ledger entries <= granted) after a run.
"""


class RetryBudget:
    """A fixed allowance of retries shared across one invocation."""

    def __init__(self, granted):
        if granted < 0:
            raise ValueError("retry budget must be >= 0, got %r" % (granted,))
        self.granted = int(granted)
        self.spent = 0
        #: Append-only (label, amount) spend records; the sanitizer checks
        #: ``spent`` against this ledger for conservation.
        self.ledger = []

    @property
    def remaining(self):
        """Retries still available."""
        return self.granted - self.spent

    def try_spend(self, amount=1, label="retry"):
        """Debit ``amount`` retries; False (and no debit) when exhausted."""
        if amount < 0:
            raise ValueError("cannot spend %r retries" % (amount,))
        if self.spent + amount > self.granted:
            return False
        self.spent += amount
        self.ledger.append((label, amount))
        return True

    def __repr__(self):
        return "<RetryBudget %d/%d spent>" % (self.spent, self.granted)


class InvocationContext:
    """The deadline + retry budget propagated along one invocation."""

    def __init__(self, submitted_at, deadline_at=None, retry_budget=None):
        self.submitted_at = submitted_at
        #: Absolute sim-time deadline, or None for no deadline.
        self.deadline_at = deadline_at
        #: The shared :class:`RetryBudget`, or None for unbudgeted.
        self.retry_budget = retry_budget

    def remaining(self, now):
        """Budget left on the deadline (``inf`` when un-deadlined)."""
        if self.deadline_at is None:
            return float("inf")
        return self.deadline_at - now

    def expired(self, now):
        """True once the deadline has passed."""
        return self.deadline_at is not None and now > self.deadline_at

    def __repr__(self):
        return "<InvocationContext t0=%g deadline=%r budget=%r>" % (
            self.submitted_at, self.deadline_at, self.retry_budget)
