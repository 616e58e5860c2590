"""Map a function over tasks in forked children: each gets a task pipe,
on which the parent sends the 4-byte index of its next task, and a result
pipe, on which it answers with a length-prefixed pickle of (True, result)
or (False, the exception raised). No thread starts."""

import os
import pickle
import select


def _read(fd, size):
    buf = bytearray()
    while len(buf) < size:
        part = os.read(fd, size - len(buf))
        if not part:
            raise EOFError
        buf += part
    return buf


def _serve(fn, tasks, task_r, result_w):
    while True:  # until the parent closes the task pipe: EOFError
        index = int.from_bytes(_read(task_r, 4), "little")
        try:
            reply = (True, fn(tasks[index]))
        except Exception as e:
            reply = (False, e)
        reply = pickle.dumps(reply, -1)
        data = memoryview(len(reply).to_bytes(8, "little") + reply)
        while data:
            data = data[os.write(result_w, data):]


def fork_map(fn, tasks, workers):
    """[fn(t) for t in tasks], from `workers` children. An exception of fn
    is raised here; a child that dies before it answers raises
    ChildProcessError. No child outlives the call: each is reaped, and
    killed first if this raises."""
    results, fds, pids, busy = [None] * len(tasks), [], [], {}
    todo = iter(range(len(tasks)))

    def give(task_w, result_r, pid):  # the next task, if one is left
        index = next(todo, None)
        if index is not None:
            os.write(task_w, index.to_bytes(4, "little"))
            busy[result_r] = (task_w, pid, index)

    try:
        for _ in range(workers):
            (task_r, task_w), (result_r, result_w) = os.pipe(), os.pipe()
            fds += (task_w, result_r)
            try:
                pid = os.fork()
                if pid == 0:
                    try:
                        for fd in fds:  # its siblings' pipes too
                            os.close(fd)
                        _serve(fn, tasks, task_r, result_w)
                    except EOFError:  # the parent closed the task pipe
                        os._exit(0)
                    finally:
                        os._exit(1)
            finally:
                os.close(task_r)
                os.close(result_w)
            pids.append(pid)
            give(task_w, result_r, pid)
        while busy:
            for result_r in select.select(list(busy), [], [])[0]:
                task_w, pid, index = busy.pop(result_r)
                try:
                    size = int.from_bytes(_read(result_r, 8), "little")
                    ok, results[index] = pickle.loads(_read(result_r, size))
                except EOFError:
                    pids.remove(pid)
                    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    raise ChildProcessError(
                        f"worker {pid} died before it answered "
                        f"(exit status {status})") from None
                if not ok:
                    raise results[index]
                give(task_w, result_r, pid)
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, 9)  # SIGKILL
        raise
    finally:
        for fd in fds:  # an idle child reads the end of its task pipe
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
