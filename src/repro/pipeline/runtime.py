"""Executes dataset graphs with real threads.

The executor walks the node chain source-to-sink and wraps each stage in
an iterator:

* ``MapNode`` with ``num_parallel_calls > 1`` keeps a bounded window of
  futures in a thread pool, preserving input order (like tf.data's
  deterministic parallel map);
* ``CacheNode`` materialises elements on the first pass and serves every
  later pass from memory -- with an optional byte budget that raises
  :class:`MemoryError`-like failure the same way the paper's app-cache
  runs "failed to run" when the dataset outgrew RAM;
* ``ShuffleNode`` implements the with-replacement buffer strategy the
  paper describes (fill a buffer, emit a random slot, refill from the
  stream);
* ``PrefetchNode`` runs the upstream iterator on a daemon thread feeding
  a bounded queue.
"""

from __future__ import annotations

import queue
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Iterator

import numpy as np

from repro.errors import PipelineError
from repro.pipeline import nodes as n


class AppCacheOverflowError(PipelineError):
    """The application-level cache exceeded its byte budget."""


def _element_nbytes(element: Any) -> int:
    """Approximate in-memory footprint of a pipeline element."""
    if isinstance(element, np.ndarray):
        return element.nbytes
    if isinstance(element, (bytes, bytearray)):
        return len(element)
    if isinstance(element, str):
        return len(element.encode("utf-8", errors="ignore"))
    if isinstance(element, (list, tuple)):
        return sum(_element_nbytes(item) for item in element)
    return sys.getsizeof(element)


class _CacheState:
    """Shared cache storage surviving across iterations of one dataset."""

    def __init__(self):
        self.filled = False
        self.elements: list[Any] = []
        self.nbytes = 0


def _iterate_source(node: n.SourceNode) -> Iterator[Any]:
    yield from node.factory()


def _iterate_map(node: n.MapNode, upstream: Iterator[Any]) -> Iterator[Any]:
    if node.num_parallel_calls == 1:
        for element in upstream:
            yield node.fn(element)
        return
    # Deterministic parallel map: submit up to N futures ahead, consume
    # in order.  Real threads => real GIL behaviour for Python-bound fns.
    with ThreadPoolExecutor(max_workers=node.num_parallel_calls,
                            thread_name_prefix=f"map-{node.name}") as pool:
        window: list = []
        exhausted = False
        iterator = iter(upstream)
        while True:
            while not exhausted and len(window) < node.num_parallel_calls:
                try:
                    element = next(iterator)
                except StopIteration:
                    exhausted = True
                    break
                window.append(pool.submit(node.fn, element))
            if not window:
                return
            yield window.pop(0).result()


def _iterate_cache(node: n.CacheNode, upstream: Iterator[Any],
                   state: _CacheState) -> Iterator[Any]:
    if state.filled:
        yield from state.elements
        return
    state.elements.clear()
    state.nbytes = 0
    for element in upstream:
        state.nbytes += _element_nbytes(element)
        if (node.capacity_bytes is not None
                and state.nbytes > node.capacity_bytes):
            state.elements.clear()
            raise AppCacheOverflowError(
                f"application cache overflow: {state.nbytes} bytes exceed "
                f"budget {node.capacity_bytes}")
        state.elements.append(element)
        yield element
    state.filled = True


def _iterate_shuffle(node: n.ShuffleNode,
                     upstream: Iterator[Any]) -> Iterator[Any]:
    rng = random.Random(node.seed)
    buffer: list[Any] = []
    for element in upstream:
        if len(buffer) < node.buffer_size:
            buffer.append(element)
            continue
        index = rng.randrange(len(buffer))
        yield buffer[index]
        buffer[index] = element
    rng.shuffle(buffer)
    yield from buffer


def _iterate_batch(node: n.BatchNode, upstream: Iterator[Any]
                   ) -> Iterator[list[Any]]:
    batch: list[Any] = []
    for element in upstream:
        batch.append(element)
        if len(batch) == node.batch_size:
            yield batch
            batch = []
    if batch and not node.drop_remainder:
        yield batch


_SENTINEL = object()


def _iterate_prefetch(node: n.PrefetchNode,
                      upstream: Iterator[Any]) -> Iterator[Any]:
    channel: queue.Queue = queue.Queue(maxsize=node.buffer_size)
    failure: list[BaseException] = []

    def producer() -> None:
        try:
            for element in upstream:
                channel.put(element)
        except BaseException as exc:  # propagate to the consumer
            failure.append(exc)
        finally:
            channel.put(_SENTINEL)

    thread = threading.Thread(target=producer, daemon=True,
                              name="prefetch-producer")
    thread.start()
    while True:
        element = channel.get()
        if element is _SENTINEL:
            thread.join()
            if failure:
                raise failure[0]
            return
        yield element


class GraphExecutor:
    """Builds per-iteration iterators for a node chain.

    Cache state is owned by the executor (it must survive across
    iterations: pass one fills, pass two serves from memory).
    """

    def __init__(self, sink: n.Node):
        self.sink = sink
        self._cache_states: dict[int, _CacheState] = {}
        for node in sink.chain():
            node.validate()
            if isinstance(node, n.CacheNode):
                self._cache_states[id(node)] = _CacheState()

    def iterator(self) -> Iterator[Any]:
        iterator: Iterator[Any] | None = None
        for node in self.sink.chain():
            if isinstance(node, n.SourceNode):
                iterator = _iterate_source(node)
            elif isinstance(node, n.MapNode):
                iterator = _iterate_map(node, iterator)
            elif isinstance(node, n.CacheNode):
                iterator = _iterate_cache(node, iterator,
                                          self._cache_states[id(node)])
            elif isinstance(node, n.ShuffleNode):
                iterator = _iterate_shuffle(node, iterator)
            elif isinstance(node, n.BatchNode):
                iterator = _iterate_batch(node, iterator)
            elif isinstance(node, n.PrefetchNode):
                iterator = _iterate_prefetch(node, iterator)
            else:
                raise PipelineError(f"unknown node type {type(node).__name__}")
        if iterator is None:
            raise PipelineError("empty dataset graph")
        return iterator
