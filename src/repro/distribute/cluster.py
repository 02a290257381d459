"""Cluster specifications.

"The remote devices are identified by application-level names.  The
names contain the job name, task inside the job, as well as the
specific device available for the task.  For example,
``/job:training/task:2/device:GPU:0``.  When a server is brought up to
be a part of a cluster, it is given the mapping from the
application-level names to specific server instances identified by DNS
names or IP addresses" (paper §4.5).

Our servers are in-process, so the "address" of a task is a symbolic
endpoint string; the mapping machinery (job -> task -> endpoint) is the
same shape a gRPC deployment would use.
"""

from __future__ import annotations

from typing import Mapping, Sequence, Union

from repro.framework.errors import InvalidArgumentError

__all__ = ["ClusterSpec"]


class ClusterSpec:
    """A mapping from job names to task endpoints."""

    def __init__(self, jobs: Mapping[str, Union[int, Sequence[str]]]) -> None:
        """Args:
            jobs: dict mapping a job name to either a task count (int,
                synthesizing local endpoints) or an explicit list of
                endpoint strings.
        """
        self._jobs: dict[str, list[str]] = {}
        for job, tasks in jobs.items():
            if isinstance(tasks, int):
                self._jobs[job] = [f"local://{job}/{i}" for i in range(tasks)]
            else:
                self._jobs[job] = list(tasks)
            if not self._jobs[job]:
                raise InvalidArgumentError(f"Job {job!r} has no tasks")

    @property
    def jobs(self) -> list[str]:
        return sorted(self._jobs)

    def num_tasks(self, job: str) -> int:
        return len(self._task_list(job))

    def task_address(self, job: str, task: int) -> str:
        tasks = self._task_list(job)
        if not 0 <= task < len(tasks):
            raise InvalidArgumentError(
                f"Job {job!r} has {len(tasks)} tasks; task {task} does not exist"
            )
        return tasks[task]

    def _task_list(self, job: str) -> list[str]:
        try:
            return self._jobs[job]
        except KeyError:
            raise InvalidArgumentError(f"Unknown job {job!r}") from None

    def device_name(self, job: str, task: int, device_type: str = "CPU", index: int = 0) -> str:
        """The application-level device name for a task's device."""
        self.task_address(job, task)
        return f"/job:{job}/replica:0/task:{task}/device:{device_type.upper()}:{index}"

    def __repr__(self) -> str:
        jobs = {job: list(tasks) for job, tasks in self._jobs.items()}
        return f"ClusterSpec({jobs!r})"
