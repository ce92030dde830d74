//! Pins what hydrating a client costs in heap bytes. A FedAvg client never
//! profiles, so hydration must not draw its profiler sample: on `tiny_mlp`
//! that draw's per-layer index pools alone are one `usize` per parameter.
//!
//! Everything runs inside ONE `#[test]` — libtest runs tests on parallel
//! threads by default, and a second test's allocations would pollute the
//! global counter mid-measurement.

use fedca_core::params::ModelLayout;
use fedca_core::population::{ClientFactory, ClientStore};
use fedca_core::{FlConfig, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.fetch_add(new_size, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn hydrating_a_fedavg_client_allocates_less_than_a_usize_per_parameter() {
    let workload = Workload::tiny_mlp(1);
    let layout = Arc::new(ModelLayout::from_spans((workload.model_factory)().spans()));
    let params = layout.total_params();
    let fl = FlConfig {
        n_clients: 100,
        ..FlConfig::scaled()
    };
    let mut store = ClientStore::new(ClientFactory::new(&fl, &workload, layout));
    // The first hydration sizes the resident table; the second one fits it.
    assert!(store.hydrate(0).unwrap());
    let before = BYTES.load(Ordering::Relaxed);
    assert!(store.hydrate(1).unwrap(), "a fresh hydration");
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    let bound = params * std::mem::size_of::<usize>();
    assert!(
        bytes < bound,
        "hydrating one FedAvg tiny_mlp client allocated {bytes} B; \
         one usize per parameter is {bound} B"
    );
}
