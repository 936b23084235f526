//! AES-128 encryption compiled to one DARTH-PUM ISA program and run
//! bit-exactly on the functional simulator (§5.3's placement), validated
//! against FIPS-197 and broken down by executed instruction.
//!
//! Run with: `cargo run --release --example aes_encrypt`

use darth_apps::aes::AesExec;
use darth_pum::eval::Executable;
use darth_sim::{SimExecutor, StatExecutor};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // FIPS-197 Appendix B key and plaintext.
    let case = AesExec::fips197_appendix_b();
    let (run, stats) = SimExecutor::new().execute_with_stats(&case.job()?)?;

    print!("hybrid ciphertext: ");
    for cell in &run.outputs[0].cells {
        print!("{cell:02x}");
    }
    println!();
    assert_eq!(
        run.outputs,
        case.golden()?,
        "hybrid tile must match FIPS-197"
    );
    println!("matches FIPS-197 Appendix B ✓");

    println!(
        "\nexecuted instructions by mnemonic ({} total, {} analog):",
        stats.run.instructions, stats.run.analog_instructions
    );
    for (mnemonic, count) in &stats.histogram {
        println!(
            "  {mnemonic:<8} {count:>6} ({:>5.1}%)",
            100.0 * *count as f64 / stats.run.instructions as f64
        );
    }
    println!("\ntile busy cycles: {}", stats.busy_cycles.get());
    println!("tile energy:      {}", stats.energy);
    Ok(())
}
