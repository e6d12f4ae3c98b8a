//! Several threads writing one snapshot path at once: every write
//! succeeds, every read-back decodes to one writer's complete payload,
//! and no `*.tmp` debris is left behind.

#![allow(clippy::unwrap_used, clippy::cast_possible_truncation)]

use vod_json::snapshot::{read_snapshot, write_snapshot_atomic};

const WRITERS: usize = 8;
const ROUNDS: usize = 40;

#[test]
fn concurrent_writers_of_one_path_never_tear() {
    let dir = std::env::temp_dir().join(format!("vod-snap-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("shared.snap");
    // Distinct lengths and fill bytes: a torn or interleaved file can
    // never pass for one writer's payload.
    let payloads: Vec<Vec<u8>> = (0..WRITERS)
        .map(|w| vec![w as u8 + 1; 16 * 1024 + w * 97])
        .collect();
    std::thread::scope(|scope| {
        for (w, mine) in payloads.iter().enumerate() {
            let (path, payloads) = (&path, &payloads);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    write_snapshot_atomic(path, "shared", 1, mine)
                        .unwrap_or_else(|e| panic!("writer {w} round {round}: {e}"));
                    let back = read_snapshot(path, "shared", 1)
                        .unwrap_or_else(|e| panic!("reader {w} round {round}: {e}"));
                    assert!(
                        payloads.contains(&back),
                        "writer {w} round {round}: read back {} bytes that no writer wrote",
                        back.len()
                    );
                }
            });
        }
    });
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names, ["shared.snap"], "temp-file debris left behind");
    let _ = std::fs::remove_dir_all(&dir);
}
