//! One module per paper table/figure. Every module exposes
//! `run(scale: Scale)`, printing the reproduced rows/series.

pub mod ablation;
pub mod approx;
pub mod common;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig9;
pub mod table2;
pub mod table4;
pub mod table5;
pub mod table6;
pub mod table7;
