"""Worker processes for the sharded fork rig.

:func:`run_sharded_tasks` forks one worker process per shard, runs a
task in each, and gathers picklable reports.  It uses the ``fork`` start
method (Linux): children inherit the parent image, so task closures
need not be picklable — only the reports that travel back through the
pipes.
"""

import multiprocessing
import traceback

_CTX = multiprocessing.get_context("fork")


class ShardWorkerError(RuntimeError):
    """A shard worker process failed; carries the child's traceback."""


def _task_main(conn, task, shard_id, workers):
    """Child entry for :func:`run_sharded_tasks`."""
    try:
        conn.send(("report", task(shard_id, workers)))
    except BaseException:  # the parent re-raises with this traceback
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def run_sharded_tasks(task, workers):
    """Run ``task(shard_id, workers)`` in one forked process per shard.

    Returns the reports in shard order.  A failure in any worker
    terminates the rest and raises :class:`ShardWorkerError` with the
    child traceback — never a silent partial result.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    pipes, procs = [], []
    for shard_id in range(workers):
        parent_conn, child_conn = _CTX.Pipe(duplex=False)
        proc = _CTX.Process(target=_task_main,
                            args=(child_conn, task, shard_id, workers))
        proc.start()
        child_conn.close()
        pipes.append(parent_conn)
        procs.append(proc)
    reports, failure = [], None
    for shard_id, conn in enumerate(pipes):
        try:
            tag, payload = conn.recv()
        except EOFError:
            tag, payload = "error", ("worker %d exited without a report"
                                     % shard_id)
        if tag == "error" and failure is None:
            failure = "shard worker %d failed:\n%s" % (shard_id, payload)
        reports.append(payload if tag == "report" else None)
    for proc in procs:
        proc.join()
    if failure is not None:
        raise ShardWorkerError(failure)
    return reports
