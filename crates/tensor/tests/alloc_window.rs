//! Per-thread allocation windows (`hb_tensor::alloc::ThreadWindow`).
//! A separate test binary: the unit tests beside `alloc.rs` assert the
//! process-wide counters, which another thread's allocations would move.

use hb_tensor::alloc::ThreadWindow;
use hb_tensor::Tensor;

#[test]
fn thread_window_ignores_other_threads() {
    let w = ThreadWindow::open();
    std::thread::spawn(|| drop(Tensor::<f32>::zeros(&[1 << 10])))
        .join()
        .unwrap_or_else(|_| panic!("allocating thread panicked"));
    assert_eq!(w.allocations(), 0);
    assert_eq!(w.peak_bytes(), 0);
    let t = Tensor::<f32>::zeros(&[256]);
    drop(t);
    assert_eq!(w.allocations(), 1);
    assert_eq!(w.peak_bytes(), 1024);
}
