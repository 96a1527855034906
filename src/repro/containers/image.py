"""Container images: the static recipe a container is instantiated from.

An image describes the memory layout a warmed function container ends up
with (code, shared libraries, heap, ...), the on-disk image size (what C/R
must checkpoint/copy), and the cold-start cost of building it from scratch
(container creation + managed-runtime initialisation, §2.3).
"""

from .. import params
from ..kernel import VmaKind


class MemoryLayout:
    """Page counts per region of a warmed container."""

    def __init__(self, code_pages, lib_pages, data_pages, heap_pages,
                 stack_pages=16):
        for name, value in (("code", code_pages), ("lib", lib_pages),
                            ("data", data_pages), ("heap", heap_pages),
                            ("stack", stack_pages)):
            if value <= 0:
                raise ValueError("%s_pages must be positive, got %r" % (name, value))
        self.code_pages = code_pages
        self.lib_pages = lib_pages
        self.data_pages = data_pages
        self.heap_pages = heap_pages
        self.stack_pages = stack_pages

    @property
    def total_pages(self):
        """Total pages across all regions."""
        return (self.code_pages + self.lib_pages + self.data_pages
                + self.heap_pages + self.stack_pages)

    @property
    def total_bytes(self):
        """Total bytes across all regions."""
        return self.total_pages * params.PAGE_SIZE

    def regions(self):
        """(kind, pages, writable) tuples in mapping order."""
        return [
            (VmaKind.CODE, self.code_pages, False),
            (VmaKind.SHARED_LIB, self.lib_pages, False),
            (VmaKind.DATA, self.data_pages, True),
            (VmaKind.HEAP, self.heap_pages, True),
            (VmaKind.STACK, self.stack_pages, True),
        ]


class ContainerImage:
    """A registered function's container image."""

    #: Fixed non-page memory of a running instance (runtime structures).
    runtime_overhead_bytes = params.MB

    def __init__(self, name, layout, image_file_bytes, cold_start_latency):
        self.name = name
        self.layout = layout
        #: Size of the checkpoint/image file C/R must produce and move.
        self.image_file_bytes = image_file_bytes
        #: Full from-scratch start: container build + runtime init (§2.3).
        self.cold_start_latency = cold_start_latency

    def __repr__(self):
        return "<ContainerImage %s %.1fMB>" % (
            self.name, self.layout.total_bytes / params.MB)


def hello_world_image():
    """TC0: the ServerlessBench Python hello-world (10.2 MB image)."""
    layout = MemoryLayout(code_pages=50, lib_pages=800, data_pages=64,
                          heap_pages=400, stack_pages=16)
    return ContainerImage(
        "tc0-hello-world", layout,
        image_file_bytes=int(10.2 * params.MB),
        cold_start_latency=params.DOCKER_COLD_START)


def image_resize_image():
    """TC1: the ServerlessBench image-processing function (38 MB image)."""
    layout = MemoryLayout(code_pages=120, lib_pages=2400, data_pages=512,
                          heap_pages=4000, stack_pages=32)
    return ContainerImage(
        "tc1-image-resize", layout,
        image_file_bytes=38 * params.MB,
        cold_start_latency=1.9 * params.SEC)
