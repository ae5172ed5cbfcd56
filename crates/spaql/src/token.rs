//! Tokens and the sPaQL lexer.

use crate::error::SpaqlError;
use crate::Result;

/// sPaQL keywords (case-insensitive in the source text).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Keyword {
    Select,
    Package,
    As,
    From,
    Repeat,
    Where,
    Such,
    That,
    And,
    Or,
    Not,
    Between,
    Sum,
    Count,
    Expected,
    Probability,
    With,
    Of,
    Maximize,
    Minimize,
    Input,
    Limit,
}

impl Keyword {
    /// Parse a keyword from an identifier-like word.
    pub fn from_word(word: &str) -> Option<Keyword> {
        let upper = word.to_ascii_uppercase();
        Some(match upper.as_str() {
            "SELECT" => Keyword::Select,
            "PACKAGE" => Keyword::Package,
            "AS" => Keyword::As,
            "FROM" => Keyword::From,
            "REPEAT" => Keyword::Repeat,
            "WHERE" => Keyword::Where,
            "SUCH" => Keyword::Such,
            "THAT" => Keyword::That,
            "AND" => Keyword::And,
            "OR" => Keyword::Or,
            "NOT" => Keyword::Not,
            "BETWEEN" => Keyword::Between,
            "SUM" => Keyword::Sum,
            "COUNT" => Keyword::Count,
            "EXPECTED" => Keyword::Expected,
            "PROBABILITY" => Keyword::Probability,
            "WITH" => Keyword::With,
            "OF" => Keyword::Of,
            "MAXIMIZE" => Keyword::Maximize,
            "MINIMIZE" => Keyword::Minimize,
            "INPUT" => Keyword::Input,
            "LIMIT" => Keyword::Limit,
            _ => return None,
        })
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum CompareOp {
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<>` or `!=`
    Ne,
}

impl std::fmt::Display for CompareOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CompareOp::Le => "<=",
            CompareOp::Ge => ">=",
            CompareOp::Eq => "=",
            CompareOp::Lt => "<",
            CompareOp::Gt => ">",
            CompareOp::Ne => "<>",
        };
        write!(f, "{s}")
    }
}

/// A lexical token.
#[derive(Debug, Clone, PartialEq)]
pub enum Token {
    /// A keyword.
    Keyword(Keyword),
    /// An identifier (attribute, table or alias name).
    Ident(String),
    /// A numeric literal.
    Number(f64),
    /// A single-quoted string literal.
    Str(String),
    /// A comparison operator.
    Compare(CompareOp),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `*`
    Star,
    /// `,`
    Comma,
    /// `-` (unary minus is folded into number literals by the parser).
    Minus,
    /// `+`
    Plus,
    /// `;`
    Semicolon,
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k:?}"),
            Token::Ident(s) => write!(f, "identifier `{s}`"),
            Token::Number(n) => write!(f, "number {n}"),
            Token::Str(s) => write!(f, "string '{s}'"),
            Token::Compare(op) => write!(f, "`{op}`"),
            Token::LParen => write!(f, "`(`"),
            Token::RParen => write!(f, "`)`"),
            Token::Star => write!(f, "`*`"),
            Token::Comma => write!(f, "`,`"),
            Token::Minus => write!(f, "`-`"),
            Token::Plus => write!(f, "`+`"),
            Token::Semicolon => write!(f, "`;`"),
        }
    }
}

/// Tokenize an sPaQL query string.
pub fn tokenize(input: &str) -> Result<Vec<Token>> {
    let bytes = input.as_bytes();
    let mut tokens = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => {
                i += 1;
            }
            '(' => {
                tokens.push(Token::LParen);
                i += 1;
            }
            ')' => {
                tokens.push(Token::RParen);
                i += 1;
            }
            '*' => {
                tokens.push(Token::Star);
                i += 1;
            }
            ',' => {
                tokens.push(Token::Comma);
                i += 1;
            }
            ';' => {
                tokens.push(Token::Semicolon);
                i += 1;
            }
            '+' => {
                tokens.push(Token::Plus);
                i += 1;
            }
            '-' => {
                // Could be a comment `--` or a minus sign.
                if i + 1 < bytes.len() && bytes[i + 1] as char == '-' {
                    while i < bytes.len() && bytes[i] as char != '\n' {
                        i += 1;
                    }
                } else {
                    tokens.push(Token::Minus);
                    i += 1;
                }
            }
            '<' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Compare(CompareOp::Le));
                    i += 2;
                } else if i + 1 < bytes.len() && bytes[i + 1] as char == '>' {
                    tokens.push(Token::Compare(CompareOp::Ne));
                    i += 2;
                } else {
                    tokens.push(Token::Compare(CompareOp::Lt));
                    i += 1;
                }
            }
            '>' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Compare(CompareOp::Ge));
                    i += 2;
                } else {
                    tokens.push(Token::Compare(CompareOp::Gt));
                    i += 1;
                }
            }
            '=' => {
                tokens.push(Token::Compare(CompareOp::Eq));
                i += 1;
            }
            '!' => {
                if i + 1 < bytes.len() && bytes[i + 1] as char == '=' {
                    tokens.push(Token::Compare(CompareOp::Ne));
                    i += 2;
                } else {
                    return Err(SpaqlError::UnexpectedChar {
                        ch: '!',
                        position: i,
                    });
                }
            }
            '\'' => {
                let start = i + 1;
                let mut j = start;
                while j < bytes.len() && bytes[j] as char != '\'' {
                    j += 1;
                }
                if j >= bytes.len() {
                    return Err(SpaqlError::BadLiteral {
                        message: "unterminated string literal".into(),
                        position: i,
                    });
                }
                tokens.push(Token::Str(input[start..j].to_string()));
                i = j + 1;
            }
            c if c.is_ascii_digit() || c == '.' => {
                let start = i;
                let mut j = i;
                let mut seen_dot = false;
                let mut seen_exp = false;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_digit() {
                        j += 1;
                    } else if d == '.' && !seen_dot && !seen_exp {
                        seen_dot = true;
                        j += 1;
                    } else if (d == 'e' || d == 'E') && !seen_exp && j > start {
                        seen_exp = true;
                        j += 1;
                        if j < bytes.len() && (bytes[j] as char == '+' || bytes[j] as char == '-') {
                            j += 1;
                        }
                    } else {
                        break;
                    }
                }
                let text = &input[start..j];
                let value: f64 = text.parse().map_err(|_| SpaqlError::BadLiteral {
                    message: format!("cannot parse number `{text}`"),
                    position: start,
                })?;
                // `1e309` parses to infinity, which no query means and which
                // prints back as `inf`, a name rather than a number.
                if !value.is_finite() {
                    return Err(SpaqlError::BadLiteral {
                        message: format!("number `{text}` is out of range"),
                        position: start,
                    });
                }
                tokens.push(Token::Number(value));
                i = j;
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                let mut j = i;
                while j < bytes.len() {
                    let d = bytes[j] as char;
                    if d.is_ascii_alphanumeric() || d == '_' {
                        j += 1;
                    } else {
                        break;
                    }
                }
                let word = &input[start..j];
                match Keyword::from_word(word) {
                    Some(k) => tokens.push(Token::Keyword(k)),
                    None => tokens.push(Token::Ident(word.to_string())),
                }
                i = j;
            }
            other => {
                return Err(SpaqlError::UnexpectedChar {
                    ch: other,
                    position: i,
                })
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_the_figure_1_query() {
        let q = "SELECT PACKAGE(*) AS Portfolio FROM Stock_Investments \
                 SUCH THAT SUM(price) <= 1000 AND \
                 SUM(Gain) >= -10 WITH PROBABILITY >= 0.95 \
                 MAXIMIZE EXPECTED SUM(Gain)";
        let toks = tokenize(q).unwrap();
        assert_eq!(toks[0], Token::Keyword(Keyword::Select));
        assert_eq!(toks[1], Token::Keyword(Keyword::Package));
        assert!(toks.contains(&Token::Ident("Stock_Investments".into())));
        assert!(toks.contains(&Token::Number(1000.0)));
        assert!(toks.contains(&Token::Compare(CompareOp::Ge)));
        assert!(toks.contains(&Token::Number(0.95)));
        assert!(toks.contains(&Token::Keyword(Keyword::Maximize)));
    }

    #[test]
    fn keywords_are_case_insensitive() {
        let toks = tokenize("select Package COUNT sUm").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Keyword(Keyword::Select),
                Token::Keyword(Keyword::Package),
                Token::Keyword(Keyword::Count),
                Token::Keyword(Keyword::Sum),
            ]
        );
    }

    #[test]
    fn numbers_including_scientific_notation() {
        let toks = tokenize("1 2.5 1e3 4.2E-2 .5").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Number(1.0),
                Token::Number(2.5),
                Token::Number(1000.0),
                Token::Number(0.042),
                Token::Number(0.5),
            ]
        );
    }

    #[test]
    fn operators_and_punctuation() {
        let toks = tokenize("<= >= = < > <> != ( ) * , ; + -").unwrap();
        assert_eq!(
            toks,
            vec![
                Token::Compare(CompareOp::Le),
                Token::Compare(CompareOp::Ge),
                Token::Compare(CompareOp::Eq),
                Token::Compare(CompareOp::Lt),
                Token::Compare(CompareOp::Gt),
                Token::Compare(CompareOp::Ne),
                Token::Compare(CompareOp::Ne),
                Token::LParen,
                Token::RParen,
                Token::Star,
                Token::Comma,
                Token::Semicolon,
                Token::Plus,
                Token::Minus,
            ]
        );
    }

    #[test]
    fn string_literals_and_comments() {
        let toks = tokenize("WHERE stock = 'AAPL' -- a comment\n AND 1").unwrap();
        assert!(toks.contains(&Token::Str("AAPL".into())));
        assert!(toks.contains(&Token::Keyword(Keyword::And)));
        assert!(toks.contains(&Token::Number(1.0)));
        // The comment body is dropped entirely.
        assert!(!toks
            .iter()
            .any(|t| matches!(t, Token::Ident(s) if s == "comment")));
    }

    #[test]
    fn lexer_errors() {
        assert!(matches!(
            tokenize("price @ 3").unwrap_err(),
            SpaqlError::UnexpectedChar { ch: '@', .. }
        ));
        assert!(matches!(
            tokenize("'oops").unwrap_err(),
            SpaqlError::BadLiteral { .. }
        ));
        assert!(matches!(
            tokenize("a ! b").unwrap_err(),
            SpaqlError::UnexpectedChar { ch: '!', .. }
        ));
        assert!(matches!(
            tokenize("SUM(x) <= 1e309").unwrap_err(),
            SpaqlError::BadLiteral { position: 10, .. }
        ));
    }

    #[test]
    fn compare_op_display() {
        assert_eq!(CompareOp::Le.to_string(), "<=");
        assert_eq!(CompareOp::Ne.to_string(), "<>");
        assert_eq!(Token::Star.to_string(), "`*`");
    }
}
