"""Fixture: unbalanced resource acquisition (acquire-release-balance)."""


def bad_no_release(env, daemon):
    yield daemon.acquire()  # positive: never released
    yield env.timeout(1.0)


def bad_release_outside_finally(env, daemon):
    yield daemon.acquire()  # positive: release skipped if the wait raises
    yield env.timeout(1.0)
    daemon.release()


def good_finally(env, daemon):
    yield daemon.acquire()
    try:
        yield env.timeout(1.0)
    finally:
        daemon.release()


def good_with(lock):
    with lock.acquire():
        return 1


def suppressed(env, daemon):
    yield daemon.acquire()  # reprolint: disable=acquire-release-balance
    yield env.timeout(1.0)
