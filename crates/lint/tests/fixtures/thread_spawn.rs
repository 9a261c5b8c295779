//! Fixture: must trip exactly one `thread-spawn` finding.

fn run_in_background() {
    let handle = std::thread::spawn(|| 42);
    let _ = handle.join();
}
